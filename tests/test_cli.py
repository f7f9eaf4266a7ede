import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import csatools
from csatools import bounds, brauer, chowring, cli, karpenko, valuation, verify
from csatools.errors import ConsistencyError


def run_ok(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def run_pairs(capsys, argv):
    """Parse the aligned text output into a key -> value dict."""
    pairs = {}
    for line in run_ok(capsys, argv).splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition(" ")
        pairs[key] = value.strip()
    return pairs


def get_json(capsys, argv):
    out = run_ok(capsys, argv + ["--format", "json-like-stable-schema"])
    lines = out.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


class TestBasicCommands:
    def test_vp(self, capsys):
        pairs = run_pairs(capsys, ["vp", "--p", "3", "--n", "18"])
        assert pairs["vp"] == "2"

    def test_vp_factorial_methods(self, capsys):
        pairs = run_pairs(capsys, ["vp-factorial", "--p", "3", "--n", "9"])
        assert pairs["vp"] == "4"
        pairs = run_pairs(
            capsys, ["vp-factorial", "--p", "3", "--method", "prime-power", "--n", "2"]
        )
        assert pairs["vp"] == "4"
        pairs = run_pairs(
            capsys,
            ["vp-factorial", "--p", "3", "--method", "k-prime-power", "--k", "2", "--n", "2"],
        )
        assert pairs["vp"] == "8"
        pairs = run_pairs(
            capsys, ["vp-factorial", "--p", "3", "--method", "misc", "--k", "2", "--n", "1"]
        )
        assert pairs["vp"] == "8"

    def test_vp_factorial_missing_k_is_usage_error(self, capsys):
        code = cli.run(["vp-factorial", "--p", "3", "--method", "misc", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--k" in captured.err

    def test_vp_factorial_unused_k_is_usage_error(self, capsys):
        for method in ("oracle", "prime-power"):
            code = cli.run(["vp-factorial", "--p", "3", "--method", method, "--n", "9", "--k", "2"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"usage error: --k is not used by --method {method}\n"

    def test_multinomial(self, capsys):
        out = run_ok(capsys, ["multinomial", "--top", "6", "--parts", "2,2,2"])
        assert "90" in out

    def test_segre_degree(self, capsys):
        pairs = run_pairs(capsys, ["segre-degree", "--shape", "2,2"])
        assert pairs["expansion"] == "2"
        assert pairs["closed_form"] == "2"
        assert pairs["agree"] == "true"
        assert pairs["top_power_class"] == "2·l1^1*l2^1"

    @pytest.mark.parametrize("shape", ["1", "1,3", "2,1,4", "3,1,1,2"])
    def test_segre_top_power_class_with_trivial_factors(self, capsys, shape):
        pairs = run_pairs(capsys, ["segre-degree", "--shape", shape])
        ring = chowring.RingShape(tuple(map(int, shape.split(","))))
        top = chowring.power(chowring.hyperplane_sum(ring), ring.dimension)
        assert pairs["top_power_class"] == top.to_text()

    def test_bound_general(self, capsys):
        pairs = run_pairs(
            capsys,
            ["bound", "general", "--shape", "3,3,3", "--index", "3", "--period", "3"],
        )
        assert pairs["total"] == "90"
        assert pairs["r"] == "0"

    def test_bound_prime_power(self, capsys):
        pairs = run_pairs(capsys, ["bound", "prime-power", "--p", "3", "--k", "1", "--n", "1"])
        assert pairs["p_part"] == "9"
        assert pairs["m"] == "10"
        assert pairs["total"] == "90"

    def test_bound_baseline(self, capsys):
        pairs = run_pairs(capsys, ["bound", "baseline", "--point", "2:1", "--point", "2:1"])
        assert pairs["total"] == "4"

    def test_bound_improvement(self, capsys):
        pairs = run_pairs(capsys, ["bound", "improvement", "--p", "3", "--k", "1", "--n", "1"])
        assert pairs["baseline"] == "27"
        assert pairs["improved_p_part"] == "9"

    def test_cofactor_m(self, capsys):
        pairs = run_pairs(capsys, ["cofactor-m", "--p", "3", "--k", "1", "--n", "1"])
        assert pairs["m"] == "10"

    def test_karpenko_bound(self, capsys):
        pairs = run_pairs(capsys, ["karpenko-bound", "--p", "3", "--n", "3", "--codim", "20"])
        assert pairs["lower_bound"] == "3"

    def test_corestriction_cert(self, capsys):
        pairs = run_pairs(capsys, ["corestriction-cert", "--p", "3", "--r", "1"])
        assert pairs["codim"] == "20"
        assert pairs["observed_valuation"] == "2"
        assert pairs["lower_bound"] == "3"
        assert pairs["violated"] == "true"

    def test_proof_inequalities(self, capsys):
        pairs = run_pairs(capsys, ["proof-inequalities", "--p", "5", "--r", "1"])
        assert pairs["holds"] == "true"
        assert pairs["pr_ge_r_plus_2"] == "true"
        assert pairs["pr_ge_rp"] == "true"

    @pytest.mark.parametrize("command", ["corestriction-cert", "proof-inequalities"])
    @pytest.mark.parametrize("r, marked", [(2, False), (3, True)])
    def test_provenance_marks_r_at_least_p_as_outside_the_paper(self, capsys, command, r, marked):
        note = "r >= p: outside the paper's range (odd p, n = rp < p^2); the formula's answer"
        argv = [command, "--p", "3", "--r", str(r)]
        text = run_ok(capsys, argv).splitlines()
        record = json.loads(get_json(capsys, argv))["provenance"]
        assert (f"# {note}" in text, note in record) == (marked, marked)
        if marked:
            assert text[-1] == f"# {note}" and record[-1] == note

    def test_index_reduction(self, capsys):
        pairs = run_pairs(
            capsys,
            ["index-reduction", "--p", "3", "--target", "1,1,2", "--fiber", "1,1,1", "--d", "2"],
        )
        assert pairs["index"] == "27"

    def test_prop1(self, capsys):
        pairs = run_pairs(capsys, ["prop1", "--p", "3"])
        assert pairs["index_of_A"] == "9"
        assert pairs["index_of_A_prime"] == "27"

    def test_prop1_table(self, capsys):
        out = run_ok(capsys, ["prop1-table", "--p", "3"])
        lines = out.strip().splitlines()
        assert lines[0].split() == ["i", "factor", "index", "term", "case"]
        assert len(lines) == 10  # header + 9 rows

    def test_prop2(self, capsys):
        pairs = run_pairs(capsys, ["prop2", "--p", "5", "--d", "2", "--n", "3"])
        assert pairs["index_of_A"] == "25"
        assert pairs["index_of_A_prime"] == "125"


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.run(["not-a-command"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, capsys):
        assert cli.run(["vp", "--p", "3"]) == 2
        capsys.readouterr()

    def test_domain_error_composite_prime(self, capsys):
        assert cli.run(["vp", "--p", "6", "--n", "18"]) == 1
        assert "not a prime" in capsys.readouterr().err

    def test_domain_error_certificate_p2(self, capsys):
        assert cli.run(["corestriction-cert", "--p", "2", "--r", "1"]) == 1
        assert "odd" in capsys.readouterr().err

    def test_domain_error_prop2_preconditions(self, capsys):
        assert cli.run(["prop2", "--p", "5", "--d", "3", "--n", "3"]) == 1
        capsys.readouterr()

    def test_domain_error_vp_of_zero(self, capsys):
        assert cli.run(["vp", "--p", "3", "--n", "0"]) == 1
        capsys.readouterr()

    def test_invalid_choice_quotes_each_choice(self, capsys):
        assert cli.run(["vp-factorial", "--p", "3", "--method", "bogus", "--n", "1"]) == 2
        assert capsys.readouterr().err.endswith(
            "argument --method: invalid choice: 'bogus' "
            "(choose from 'oracle', 'prime-power', 'k-prime-power', 'misc')\n")

    def test_malformed_csv_is_usage_error(self, capsys):
        assert cli.run(["segre-degree", "--shape", "2,x"]) == 2
        capsys.readouterr()

    def assert_quick_rejection(self, capsys, argv):
        """Exit 1 with one `error:` line naming the size limit, in under 0.5 s."""
        started = time.perf_counter()
        code = cli.run(argv.split())
        elapsed = time.perf_counter() - started
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "limit" in captured.err
        assert elapsed < 0.5

    def test_oversized_certificate_is_rejected_quickly(self, capsys):
        for command in ("corestriction-cert", "proof-inequalities"):
            self.assert_quick_rejection(capsys, f"{command} --p 3 --r 1000000000")

    @pytest.mark.parametrize("argv", [
        "cofactor-m --p 13 --k 3 --n 3",
        "vp-factorial --p 3 --method prime-power --n 1000000000",
        "bound baseline --point 1000:1000000000",
        "bound improvement --p 3 --k 100 --n 1",
        "multinomial --top 1000000000 --parts 500000000,500000000",
        # estimates of 2^64 bits or more, named by a power of two rather than in decimal
        "cofactor-m --p 3 --k 1000000 --n 10007",
        "bound improvement --p 3 --k 1000000 --n 7",
    ])
    def test_oversized_number_is_rejected_quickly(self, capsys, argv):
        self.assert_quick_rejection(capsys, argv)

    @pytest.mark.parametrize("argv", [
        "prop1 --p 18446744073709551557",
        "prop1-table --p 18446744073709551557",
        "prop1 --p 4294967291",
        "prop1-table --p 1009",
        "prop1-table --p 67",
    ])
    def test_prop1_with_a_large_prime_is_rejected_quickly(self, capsys, argv):
        self.assert_quick_rejection(capsys, argv)

    @pytest.mark.parametrize("argv", [
        "index-reduction --p 3 --target 1 --fiber 1 --d 25",
        "index-reduction --p 1000000007 --target 1 --fiber 1 --d 1",
        "prop1 --p 10007",
        "prop2 --p 101 --d 3 --n 50",
        "prop2 --p 1000000007 --d 1 --n 2000000",  # refused before its vectors are built
    ])
    def test_long_index_reduction_is_rejected_quickly(self, capsys, argv):
        self.assert_quick_rejection(capsys, argv)

    def test_segre_degree_past_the_limit_is_refused_before_expanding(self):
        # a process with a timeout, so that an expansion run first fails the test, not hangs it
        proc = subprocess.run(
            [sys.executable, "-m", "csatools", "segre-degree", "--shape",
             "1000000007,2305843009213693951"],
            capture_output=True, text=True, env=_child_env(), timeout=10,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: the multinomial would have up to ")
        assert proc.stderr.count("\n") == 1 and "size limit" in proc.stderr

    def test_internal_inconsistency_is_exit_3(self, capsys, monkeypatch):
        def broken(p, k, n):
            raise ConsistencyError("forced for the test")

        monkeypatch.setattr(bounds, "prime_power_bound", broken)
        assert cli.run(["bound", "prime-power", "--p", "3", "--k", "1", "--n", "1"]) == 3
        assert "internal consistency failure" in capsys.readouterr().err

    def test_inexact_cofactor_division_is_exit_3(self, capsys, monkeypatch):
        real_factorial = math.factorial
        monkeypatch.setattr(math, "factorial", lambda n: real_factorial(n) + 1)
        assert cli.run(["cofactor-m", "--p", "3", "--k", "1", "--n", "1"]) == 3
        assert capsys.readouterr().err == (
            "internal consistency failure: cofactor division not exact for p=3, k=1, n=1\n")

    def test_segre_routes_that_disagree_are_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(chowring, "segre_degree_closed_form", lambda shape: 0)
        assert cli.run(["segre-degree", "--shape", "3,3,3"]) == 3
        assert capsys.readouterr().err == (
            "internal consistency failure: expansion 90 != closed form 0 on shape (3, 3, 3)\n")

    def test_inconsistency_naming_a_long_int_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(chowring, "segre_degree_closed_form", lambda shape: 10**5000)
        assert cli.run(["segre-degree", "--shape", "3,3,3"]) == 3
        assert capsys.readouterr().err == (
            f"internal consistency failure: expansion 90 != closed form 1{'0' * 5000} on shape (3, 3, 3)\n")

    def test_failing_verify_suite_is_exit_3(self, capsys, monkeypatch):
        failing = verify.SuiteResult("known-values", checks=1, failures=["forced"])
        monkeypatch.setattr(verify, "run_suites", lambda names=None: [failing])
        assert cli.run(["verify", "--suite", "known-values"]) == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "forced" in captured.err


class TestStructuredOutput:
    def test_record_field_order(self, capsys):
        line = get_json(capsys, ["bound", "prime-power", "--p", "3", "--k", "1", "--n", "1"])
        record = json.loads(line)
        assert list(record) == ["command", "inputs", "outputs", "provenance"]
        assert record["command"] == "bound prime-power"
        assert record["inputs"] == {"p": "3", "k": "1", "n": "1"}
        assert record["outputs"] == {"p_part": "9", "m": "10", "total": "90"}

    def test_numbers_are_decimal_strings(self, capsys):
        line = get_json(capsys, ["cofactor-m", "--p", "3", "--k", "1", "--n", "2"])
        record = json.loads(line)
        assert record["outputs"]["m"] == "116858170"
        assert all(isinstance(v, str) for v in record["outputs"].values())

    def test_round_trip_is_byte_identical(self, capsys):
        for argv in (
            ["vp", "--p", "3", "--n", "18"],
            ["segre-degree", "--shape", "3,3,3"],
            ["corestriction-cert", "--p", "3", "--r", "1"],
            ["prop1-table", "--p", "3"],
        ):
            line = get_json(capsys, argv)
            parsed = json.loads(line)
            assert json.dumps(parsed, separators=(", ", ": ")) == line

    def test_rendering_is_deterministic(self, capsys):
        argv = ["bound", "general", "--shape", "2,3,4", "--index", "6", "--period", "3"]
        assert get_json(capsys, argv) == get_json(capsys, argv)

    def test_booleans_render_as_words(self, capsys):
        line = get_json(capsys, ["proof-inequalities", "--p", "3", "--r", "2"])
        record = json.loads(line)
        assert record["outputs"]["holds"] == "true"


def _full_decimal(value: int) -> str:
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(saved)


class TestLongOutputs:
    """Outputs past Python's 4,300-digit int-to-str cap print in full."""

    def run_record(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        outputs = json.loads(get_json(capsys, argv))["outputs"]
        assert sys.get_int_max_str_digits() == limit
        return outputs

    def test_prime_power_bound(self, capsys):
        report = bounds.prime_power_bound(7, 2, 3)
        outputs = self.run_record(capsys, ["bound", "prime-power", "--p", "7", "--k", "2", "--n", "3"])
        assert len(outputs["total"]) > 4300
        assert outputs["total"] == _full_decimal(report.total)
        assert outputs["m"] == _full_decimal(report.cofactor)

    def test_cofactor_with_vp(self, capsys):
        m = bounds.cofactor_m(5, 2, 5)
        outputs = self.run_record(capsys, ["cofactor-m", "--p", "5", "--k", "2", "--n", "5", "--vp"])
        assert len(outputs["m"]) > 4300
        assert outputs == {"m": _full_decimal(m), "vp(m)": "0"}

    def test_large_certificate(self, capsys):
        cert = karpenko.corestriction_certificate(3, 10000)
        outputs = self.run_record(capsys, ["corestriction-cert", "--p", "3", "--r", "10000"])
        assert len(outputs["codim"]) > 4300
        assert outputs["codim"] == _full_decimal(cert.codim)
        assert outputs["lower_bound"] == str(cert.lower_bound)
        assert outputs["violated"] == "true"

    def test_text_format_and_restored_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        pairs = run_pairs(capsys, ["bound", "prime-power", "--p", "7", "--k", "2", "--n", "3"])
        assert sys.get_int_max_str_digits() == limit
        assert pairs["total"] == _full_decimal(bounds.prime_power_bound(7, 2, 3).total)

    def test_long_flag_is_still_a_usage_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        codim = "1" + "0" * 4300
        assert cli.run(["karpenko-bound", "--p", "2", "--n", "1", "--codim", codim]) == 2
        assert "--codim" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == limit


class TestVpFlag:
    def test_adds_valuation_columns(self, capsys):
        pairs = run_pairs(
            capsys, ["bound", "prime-power", "--p", "3", "--k", "1", "--n", "1", "--vp"]
        )
        assert pairs["vp(p_part)"] == "2"
        assert pairs["vp(total)"] == "2"
        assert pairs["vp(m)"] == "0"

    def test_json_decoration(self, capsys):
        line = get_json(capsys, ["cofactor-m", "--p", "2", "--k", "2", "--n", "1", "--vp"])
        record = json.loads(line)
        assert record["outputs"] == {"m": "3", "vp(m)": "0"}

    def test_rejected_on_primeless_commands(self, capsys):
        assert cli.run(["multinomial", "--top", "2", "--parts", "1,1", "--vp"]) == 2
        capsys.readouterr()

    def test_large_valuation_is_quick(self, capsys):
        # vp divides by p, p^2, p^4, ..., not once per unit of valuation
        started = time.perf_counter()
        pairs = run_pairs(capsys, "bound improvement --p 3 --k 0 --n 200000 --vp".split())
        assert time.perf_counter() - started < 5
        assert pairs["vp(baseline)"] == "200000"

    @pytest.mark.parametrize("fmt", ["text", "json-like-stable-schema"])
    def test_table_reads_each_valuation_from_the_outputs(self, capsys, monkeypatch, fmt):
        calls = []
        real_vp = valuation.vp

        def counting_vp(p, n):
            calls.append(n)
            return real_vp(p, n)

        monkeypatch.setattr(valuation, "vp", counting_vp)
        run_ok(capsys, ["prop1-table", "--p", "3", "--vp", "--format", fmt])
        assert len(calls) == 10  # the 9 terms and `rows`, once each


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        out = run_ok(capsys, ["verify", "--suite", "known-values"])
        assert "known-values" in out
        assert "result: ok (1/1 suites)" in out

    def test_suite_selection_is_deterministic(self, capsys):
        argv = ["verify", "--suite", "chow-laws", "--suite", "brauer-model"]
        first = run_ok(capsys, argv)
        second = run_ok(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_raising_suite_is_isolated(self, capsys, monkeypatch, error):
        def broken():
            raise error("forced for the test")

        monkeypatch.setitem(verify._SUITES, "chow-laws", broken)
        argv = ["verify", "--suite", "known-values", "--suite", "chow-laws"]
        assert cli.run(argv + ["--suite", "bound-valuation"]) == 3
        out, err = capsys.readouterr()
        assert "result: FAIL (2/3 suites)" in out
        assert f"chow-laws: {error.__name__}: forced for the test" in err

    def test_scenario_inconsistency_is_one_failed_check(self, monkeypatch):
        def forced(p):
            raise ConsistencyError(f"forced at p={p}")

        monkeypatch.setattr(brauer, "prop1_scenario", forced)
        [result] = verify.run_suites(["brauer-model"])
        assert (result.checks, len(result.failures)) == (108, 3)
        assert result.failures[0] == (
            "prop1 scenario p=3: got ConsistencyError('forced at p=3'), want (9, 27)")

    def test_suite_raising_after_its_first_checks_reports_none(self, monkeypatch):
        def forced(p, r):  # the suite's last three checks call it, after 263 others
            raise RuntimeError("forced for the test")

        monkeypatch.setattr(karpenko, "auxiliary_inequalities", forced)
        [result] = verify.run_suites(["karpenko-certificates"])
        assert (result.checks, result.failures) == (0, ["RuntimeError: forced for the test"])

    def test_failure_notes_are_capped_at_20_per_suite(self, capsys, monkeypatch):
        results = [
            verify.SuiteResult("known-values", checks=33, failures=[]),
            verify.SuiteResult("chow-laws", checks=144, failures=[f"forced {i}" for i in range(25)]),
        ]
        monkeypatch.setattr(verify, "run_suites", lambda names=None: results)
        argv = ["verify", "--suite", "known-values", "--suite", "chow-laws"]
        assert cli.run(argv) == 3
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"chow-laws: forced {i}" for i in range(20)]
        assert "chow-laws      25 failed    144 checks  FAIL\n" in out
        assert cli.run(argv + ["--format", "json-like-stable-schema"]) == 3
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 20
        assert '"chow-laws": "FAIL (25 failures), 144 checks"' in out

    def test_all_with_suite_is_usage_error(self, capsys):
        assert cli.run(["verify", "--all", "--suite", "known-values"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --all and --suite cannot be combined\n"

    def test_repeated_suite_is_usage_error(self, capsys):
        assert cli.run(["verify", "--suite", "known-values", "--suite", "known-values"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --suite cannot name a suite twice\n"

    def test_unknown_suite_rejected(self, capsys):
        assert cli.run(["verify", "--suite", "known-values", "--suite", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: unknown suite 'bogus'")
        assert all(name in captured.err for name in verify.suite_names())

    def test_library_checks_every_name_before_running(self, monkeypatch):
        ran = []
        monkeypatch.setitem(verify._SUITES, "known-values", lambda: ran.append(1))
        with pytest.raises(ValueError, match="unknown suite 'bogus'") as excinfo:
            verify.run_suites(["known-values", "bogus"])
        assert all(name in str(excinfo.value) for name in verify.suite_names())
        assert ran == []

    def test_json_record(self, capsys):
        line = get_json(capsys, ["verify", "--suite", "known-values"])
        record = json.loads(line)
        assert record["outputs"]["overall"] == "ok"


def _child_env():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


class TestProcessEntryPoint:
    def test_python_dash_m(self):
        env = _child_env()

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "csatools", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )

        ok = run("vp", "--p", "3", "--n", "18")
        assert ok.returncode == 0, ok.stderr
        assert "vp  2" in ok.stdout.splitlines()
        assert run("not-a-command").returncode == 2
        composite = run("vp", "--p", "6", "--n", "18")
        assert composite.returncode == 1
        assert "not a prime" in composite.stderr

    def test_closed_stdout_exits_141_quietly(self):
        # the answer, 3^300000, is longer than a pipe's buffer, so the CLI
        # is still writing when the reader closes its end, as `| head -c 10` does
        argv = ["bound", "improvement", "--p", "3", "--k", "0", "--n", "300000"]
        proc = subprocess.Popen([sys.executable, "-m", "csatools", *argv], env=_child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert err == b""
        assert proc.returncode == 141


# Imports csatools.cli, runs the argv given (if any), and prints on its last
# line the csatools modules and `dataclasses` that were not loaded before.
LOAD_PROBE = """
import sys
before = set(sys.modules)
from csatools.cli import run
code = run(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(*sorted(name for name in set(sys.modules) - before
              if name == "dataclasses" or name.partition(".")[0] == "csatools"))
sys.exit(code)
"""

CORE = ["csatools", "csatools.cli", "csatools.errors"]


class TestLoading:
    """What one CLI call loads, read from sys.modules in a fresh interpreter."""

    def loaded(self, argv):
        proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, *argv.split()],
                              capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_import_loads_only_the_cli(self):
        assert self.loaded("") == CORE

    @pytest.mark.parametrize("argv, module", [
        ("vp --p 3 --n 18", "valuation"),
        ("vp-factorial --p 3 --method misc --k 2 --n 1 --format json-like-stable-schema",
         "valuation"),
        ("multinomial --top 6 --parts 2,2,2", "valuation"),
        ("segre-degree --shape 3,3,3", "chowring"),
        ("bound general --shape 3,3,3 --index 3 --period 3", "bounds"),
        ("bound prime-power --p 3 --k 1 --n 1 --vp", "bounds"),
        ("bound baseline --point 2:1 --point 2:1", "bounds"),
        ("bound improvement --p 3 --k 1 --n 1", "bounds"),
        ("cofactor-m --p 3 --k 1 --n 2", "bounds"),
        ("karpenko-bound --p 3 --n 3 --codim 20", "karpenko"),
        ("corestriction-cert --p 3 --r 1", "karpenko"),
        ("proof-inequalities --p 7 --r 5", "karpenko"),
        ("index-reduction --p 3 --target 1,1,2 --fiber 1,1,1 --d 2", "brauer"),
        ("prop1 --p 5", "brauer"),
        ("prop1-table --p 3 --vp", "brauer"),
        ("prop2 --p 5 --d 2 --n 3", "brauer"),
    ])
    def test_a_subcommand_loads_only_its_module(self, argv, module):
        want = sorted({*CORE, "csatools.valuation", f"csatools.{module}"})
        assert self.loaded(argv) == want

    def test_verify_loads_every_module(self):
        modules = ("bounds", "brauer", "chowring", "karpenko", "valuation", "verify")
        want = sorted({*CORE, *(f"csatools.{name}" for name in modules)})
        assert self.loaded("verify --suite known-values") == want


class TestPackageNames:
    def test_each_name_is_the_object_in_its_home_module(self):
        assert len(csatools.__all__) == 40
        for name in csatools.__all__:
            value = getattr(csatools, name)
            assert value.__module__.startswith("csatools.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_names_are_looked_up_at_each_access(self, monkeypatch):
        from csatools import valuation, vp

        assert vp is valuation.vp
        monkeypatch.setattr(valuation, "vp", lambda p, n: -1)
        assert csatools.vp(3, 18) == -1
        assert "vp" not in vars(csatools)

    def test_dir_lists_every_name_and_module_before_any_is_loaded(self):
        probe = "import csatools, sys; print(*dir(csatools)); print(*sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        listed, loaded = (line.split() for line in proc.stdout.splitlines())
        modules = {"bounds", "brauer", "chowring", "cli", "errors", "karpenko", "valuation",
                   "verify"}
        assert {*csatools.__all__, *modules} <= set(listed)
        assert listed == sorted(listed)
        assert not any(name.startswith("csatools.") for name in loaded)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            csatools.no_such_name  # noqa: B018
