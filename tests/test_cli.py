"""CLI wiring: exit codes, formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cporders.cli import main
from cporders.errors import VerificationError


@pytest.fixture()
def lex3_file(tmp_path):
    from cporders.orders import lexicographic_utilities, order_from_utilities, write_order

    path = tmp_path / "lex3.ord"
    write_order(order_from_utilities(lexicographic_utilities(3)), path)
    return path


@pytest.fixture()
def nonrep_file(tmp_path, n5_census):
    order = next(
        o for o, rep in zip(n5_census.orders, n5_census.representable) if not rep
    )
    from cporders.orders import write_order

    path = tmp_path / "bad5.ord"
    write_order(order, path)
    return path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestConstruct:
    def test_json_output(self, capsys):
        code, out = run(capsys, ["construct", "--utilities", "2,4,8,3"])
        assert code == 0
        blob = json.loads(out)
        assert blob["n"] == 4
        assert blob["order"].startswith("4;-;1;4;2;")

    def test_usage_error_on_tie(self, capsys):
        assert main(["construct", "--utilities", "1,1"]) == 1

    def test_deterministic_bytes(self, capsys):
        _, first = run(capsys, ["construct", "--maclagan", "4"])
        _, second = run(capsys, ["construct", "--maclagan", "4"])
        assert first == second


class TestFlipsAndNeighbors:
    def test_flips_json(self, capsys, lex3_file):
        code, out = run(capsys, ["flips", "--order-file", str(lex3_file)])
        assert code == 0
        blob = json.loads(out)
        assert blob["count"] == 3
        assert blob["pairs"][0] == {"A": [], "B": [1], "rank": 0, "adjacencies": 4}

    def test_neighbors(self, capsys, lex3_file):
        code, out = run(capsys, ["neighbors", "--order-file", str(lex3_file)])
        assert code == 0
        assert json.loads(out)["count"] == 2

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (["--lex", "3"], "eb3270519d89f62126e0a8b05b409dc0d345b8dd0413df80dbd15c88ef01c2f3"),
            (["--lex", "4"], "fea0e9558d0f024bf2ebabc5d12a1dc0b8c36e2a0e5abb5f8003ecaa41a50c96"),
            (["--maclagan", "5"], "3a7f74e9467c5b1820992f521f92815089a819c63168febcdbe933cb8d754b14"),
        ],
    )
    def test_flips_json_bytes_pinned(self, capsys, tmp_path, spec, digest):
        # SHA-256 of the report as written when a flippable pair was its own type
        path = tmp_path / "order.ord"
        assert main(["construct", *spec, "--out", str(path)]) == 0
        capsys.readouterr()
        code, out = run(capsys, ["flips", "--order-file", str(path), "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["flips", "neighbors"])
    @pytest.mark.parametrize("n", [3, 6])
    def test_union_inconsistent_file_is_rejected(self, capsys, tmp_path, command, n):
        from cporders.orders import (
            ComparativeOrder,
            lexicographic_utilities,
            order_from_utilities,
            write_order,
        )

        if n == 3:
            # {1} < {2} but {2,3} < {1,3}
            ranked = [0, 1, 2, 3, 4, 6, 5, 7]
        else:
            # the lex order with masks 5 and 6 swapped
            ranked = list(order_from_utilities(lexicographic_utilities(6)).ranked)
            i, j = ranked.index(5), ranked.index(6)
            ranked[i], ranked[j] = ranked[j], ranked[i]
        path = tmp_path / "bad.ord"
        write_order(ComparativeOrder(n, ranked), path)
        assert main([command, "--order-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: union consistency fails: ")
        assert "Traceback" not in captured.err


class TestRepresent:
    def test_representable_exit_zero(self, capsys, lex3_file):
        code, out = run(capsys, ["represent", "--order-file", str(lex3_file)])
        assert code == 0
        assert json.loads(out)["verdict"] == "representable"

    def test_nonrepresentable_exit_three(self, capsys, nonrep_file):
        code, out = run(
            capsys, ["represent", "--order-file", str(nonrep_file), "--transform"]
        )
        assert code == 3
        blob = json.loads(out)
        assert blob["verdict"] == "nonrepresentable"
        assert "transform" in blob

    def test_certify_roundtrip(self, capsys, tmp_path, lex3_file, nonrep_file):
        code, out = run(capsys, ["represent", "--order-file", str(lex3_file)])
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, _ = run(
            capsys,
            ["certify", "--order-file", str(lex3_file), "--certificate", str(cert_path)],
        )
        assert code == 0
        # witness for the wrong order must fail verification
        code, _ = run(
            capsys,
            ["certify", "--order-file", str(nonrep_file), "--certificate", str(cert_path)],
        )
        assert code == 2

    def test_certify_transform(self, capsys, tmp_path, nonrep_file):
        code, out = run(
            capsys, ["represent", "--order-file", str(nonrep_file), "--transform"]
        )
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, out = run(
            capsys,
            ["certify", "--order-file", str(nonrep_file), "--certificate", str(cert_path)],
        )
        assert code == 3  # valid certificate, nonrepresentable verdict
        assert json.loads(out)["certificate_valid"] is True

    @pytest.mark.parametrize(
        "text",
        [
            '{"verdict": "representable"}',
            "[1, 2]",
            '{"verdict": "representable", "utilities": "124"}',
            '{"verdict": "representable", "utilities": [1.9, 2.2, 4.7]}',
            '{"verdict": "representable", "utilities": [true, 2, 4]}',
            '{"verdict": "representable", "utilities": ["1", "2", "4"]}',
            '{"verdict": "nonrepresentable", "transform": {"As": [[9]], "Bs": [[1]]}}',
            '{"verdict": "nonrepresentable", "transform": {"As": [[true]], "Bs": [[1]]}}',
            '{"verdict": "nonrepresentable", "transform": {"As": [[1, 1]], "Bs": [[2]]}}',
            '{"verdict": "nonrepresentable", "transform": {"As": [[1]], "Bs": []}}',
            '{"verdict": "maybe"}',
            "not json",
        ],
    )
    def test_certify_malformed_exits_two(self, capsys, tmp_path, lex3_file, text):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(text)
        code = main(["certify", "--order-file", str(lex3_file), "--certificate", str(cert_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("verification failed:")
        if '"utilities":' in text or '"transform":' in text:
            assert err.startswith("verification failed: malformed ")

    @pytest.mark.parametrize(
        "utilities",
        [[1, 1, 2], [4, 2, 1], [0, 2, 4], [1, 2]],
        ids=["tie", "another-order", "zero", "wrong-length"],
    )
    def test_certify_invalid_certificate_exits_two(self, capsys, tmp_path, lex3_file, utilities):
        # well-formed utilities that do not re-derive the order prove nothing
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"verdict": "representable", "utilities": utilities}))
        code, out = run(
            capsys,
            ["certify", "--order-file", str(lex3_file), "--certificate", str(cert_path)],
        )
        assert code == 2
        assert json.loads(out) == {"verdict": "representable", "certificate_valid": False}

    def test_certificates_round_trip_under_optimize(self, tmp_path, lex3_file, nonrep_file):
        # -O strips asserts; the certificate checks must still run
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-O", "-m", "cporders.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )

        for order_file, expected in ((lex3_file, 0), (nonrep_file, 3)):
            decided = cli("represent", "--format", "json", "--order-file", str(order_file))
            assert decided.returncode == expected, decided.stderr
            if expected == 3:
                assert json.loads(decided.stdout).keys() == {"verdict", "transform"}
            cert_path = tmp_path / f"cert{expected}.json"
            cert_path.write_text(decided.stdout)
            checked = cli("certify", "--order-file", str(order_file), "--certificate", str(cert_path))
            assert checked.returncode == expected, checked.stderr


class TestEnumerateAndStats:
    def test_enumerate_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "census4.ndjson"
        code, out = run(capsys, ["enumerate", "--n", "4", "--out", str(out_path)])
        assert code == 0
        blob = json.loads(out)
        assert blob["orders"] == 14
        assert blob["stats"]["M"] == 5
        code, out = run(capsys, ["stats", "--in", str(out_path)])
        assert code == 0
        assert json.loads(out)["m"] == 5

    def test_stats_rejects_mixed_atom_counts(self, capsys, tmp_path):
        path = tmp_path / "mixed.ndjson"
        code, _ = run(capsys, ["enumerate", "--n", "3", "--no-flags", "--out", str(path)])
        assert code == 0
        four = tmp_path / "four.ndjson"
        code, _ = run(capsys, ["enumerate", "--n", "4", "--no-flags", "--out", str(four)])
        assert code == 0
        with path.open("a") as fh:
            fh.write(four.read_text())
        assert main(["stats", "--in", str(path)]) == 1
        assert "n=4" in capsys.readouterr().err

    def test_stats_rejects_census_without_flags(self, capsys, tmp_path, n4_census):
        from cporders.census import OrderCensus, write_census

        path = tmp_path / "irr_only.ndjson"
        write_census(OrderCensus(4, n4_census.orders, irr_counts=n4_census.irr_counts), path)
        assert main(["stats", "--in", str(path)]) == 1
        assert "representability flags" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            '{"x": 1}',
            "[1, 2]",
            '{"order": 5}',
            '{"order": "3;-;1;2;3;1,2;1,3;2,3;1,2,3", "representable": true, "irr": "x"}',
            '{"order": "3;-;1;2;3;1,2;1,3;2,3;1,2,3", "representable": "yes", "irr": 1}',
            '{"order": "3;-;1;2;3"}',
        ],
    )
    def test_stats_rejects_malformed_record(self, capsys, tmp_path, record):
        path = tmp_path / "census3.ndjson"
        code, _ = run(capsys, ["enumerate", "--n", "3", "--out", str(path)])
        assert code == 0
        path.write_text(path.read_text() + record + "\n")
        assert main(["stats", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: ")
        assert "Traceback" not in err

    def test_enumerate_rejects_malformed_checkpoint(self, capsys, tmp_path):
        check = tmp_path / "flags3.ndjson"
        check.write_text('{"a": 1}\n')
        assert main(["enumerate", "--n", "3", "--checkpoint", str(check)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {check}:1: ")
        assert "Traceback" not in err

    def test_enumerate_rejects_checkpoint_for_another_n(self, capsys, tmp_path):
        check = tmp_path / "flags.ndjson"
        code, _ = run(capsys, ["enumerate", "--n", "3", "--checkpoint", str(check)])
        assert code == 0
        written = check.read_text()
        assert main(["enumerate", "--n", "4", "--checkpoint", str(check)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {check}:1: checkpoint record has n=3, this census has n=4")
        assert "Traceback" not in err
        assert check.read_text() == written  # no four-atom record appended

    def test_budget_exit_code(self, capsys):
        assert main(["enumerate", "--n", "6", "--budget", "0.2"]) == 4
        assert capsys.readouterr().err.startswith(
            "budget exhausted: enumeration of n=6 exceeded its budget after"
        )

    def test_no_flags_builds_no_edges(self, capsys, monkeypatch):
        def refuse(census):
            raise AssertionError("enumerate --no-flags built flip edges")

        monkeypatch.setattr("cporders.census._annotate_edges", refuse)
        code, out = run(capsys, ["enumerate", "--n", "4", "--no-flags"])
        assert code == 0
        assert json.loads(out) == {"n": 4, "orders": 14, "stats": None}


class TestBoundsAndVerify:
    def test_bounds_table(self, capsys):
        code, out = run(capsys, ["bounds", "--from", "3", "--to", "6", "--c", "0.25"])
        assert code == 0
        blob = json.loads(out)
        assert blob["rows"][2] == {"n": 5, "fib_lower": 8, "s_star": 2, "count_upper": 16}
        lo, hi = blob["entropy"]["rate_interval"]
        assert lo <= hi < 1.7548

    def test_bounds_entropy_output_is_pinned(self, capsys):
        code, out = run(capsys, ["bounds", "--to", "12", "--c", "0.25"])
        assert code == 0
        assert json.loads(out)["entropy"] == {
            "c": "1/4",
            "lambda_rate_interval": [1.7087102834051413, 1.7087102834051413],
            "rate_interval": [1.7547653506033232, 1.7547653506033232],
        }
        code, out = run(capsys, ["bounds", "--to", "12", "--c", "0.25", "--format", "text"])
        assert code == 0
        assert out.splitlines()[-1] == (
            "2^H(1/4) in [1.754765, 1.754765], 2^H(lambda) in [1.708710, 1.708710]"
        )

    @pytest.mark.parametrize("c", ["3/0", "abc", "nan"])
    def test_bounds_rejects_malformed_c(self, capsys, c):
        assert main(["bounds", "--c", c]) == 1
        err = capsys.readouterr().err
        assert f"argument --c: not a rational number: {c!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "c, message",
        [("0.22", "c = 11/50 is not above lambda"), ("0.5", "strictly between lambda and 1/2")],
    )
    def test_bounds_rejects_c_out_of_range(self, capsys, c, message):
        assert main(["bounds", "--c", c]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_verify_fibonacci(self, capsys):
        code, out = run(capsys, ["verify-fibonacci", "--n", "4"])
        assert code == 0
        blob = json.loads(out)
        assert blob["flippable"] == 8 and blob["all_friendly"]

    def test_verify_fibonacci_base_16_is_rejected(self, capsys):
        assert main(["verify-fibonacci", "--n", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3..15, got 16" in err

    def test_verify_fibonacci_base_12_needs_no_flag(self, capsys):
        code, out = run(capsys, ["verify-fibonacci", "--n", "12", "--skip-friendly"])
        assert code == 0
        assert json.loads(out)["flippable"] == 377  # F_14

    def test_verify_fibonacci_failure_exits_two(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise VerificationError("F(n+1) mismatch")

        monkeypatch.setattr("cporders.cli.verify_fibonacci_construction", fail)
        assert main(["verify-fibonacci", "--n", "4"]) == 2
        assert capsys.readouterr().err == "verification failed: F(n+1) mismatch\n"


class TestUsage:
    def test_imports_only_the_standard_library(self):
        # the package has no runtime dependency: importing the CLI loads
        # nothing but cporders and standard-library modules (-S keeps the
        # .pth files of site-packages from importing modules of their own)
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import cporders.cli; "
            "print(' '.join(sorted({m.partition('.')[0] for m in sys.modules})))"
        )
        done = subprocess.run(
            [sys.executable, "-E", "-S", "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "cporders" in loaded
        assert loaded - {"__main__", "cporders"} <= sys.stdlib_module_names

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file(self):
        assert main(["flips", "--order-file", "/nonexistent.ord"]) == 1

    def test_threads_only_where_used(self, capsys, lex3_file):
        assert main(["flips", "--order-file", str(lex3_file), "--threads", "2"]) == 1
        assert main(["enumerate", "--n", "3", "--threads", "2"]) == 0

    def test_threads_default_read_per_call(self, monkeypatch):
        # the parser is built once; each call sees the default or its own flag
        import cporders.cli

        seen = []
        real = cporders.cli.enumerate_orders

        def spy(*args, **kwargs):
            seen.append(kwargs["threads"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cporders.cli, "enumerate_orders", spy)
        assert main(["enumerate", "--n", "3", "--no-flags"]) == 0
        assert main(["enumerate", "--n", "3", "--no-flags", "--threads", "4"]) == 0
        assert main(["enumerate", "--n", "3", "--no-flags"]) == 0
        assert seen == [1, 4, 1]
        assert cporders.cli.build_parser() is cporders.cli.build_parser()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
