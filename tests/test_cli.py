import contextlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from strongopacity import cli, parse_model, verify_siso
from strongopacity.cli import run_cli
from strongopacity.verification import Verdict

from conftest import MODELS

DELAYED = str(MODELS / "delayed_leak.json")
TWO_INITIALS = str(MODELS / "two_initials.json")
UNFIXABLE = str(MODELS / "unfixable_two_step.json")
K_SAFE = str(MODELS / "k_safe_not_inf.json")
SRC = Path(__file__).resolve().parent.parent / "src"


class TestVerifyCommand:
    def test_opaque(self, capsys):
        code = run_cli(["verify", "--notion", "k-sso", "--k", "1", DELAYED])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "OPAQUE"

    def test_not_opaque_with_witness(self, capsys):
        code = run_cli(["verify", "--notion", "k-sso", "--k", "2", DELAYED])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "NOT OPAQUE"
        assert "witness: (7,{1,2,3,4}) -((b,b))-> (8,{2}) -((c,c))-> (8,∅)" in out

    def test_other_notions(self, capsys):
        assert run_cli(["verify", "--notion", "cso", DELAYED]) == 0
        assert run_cli(["verify", "--notion", "scso", TWO_INITIALS]) == 1
        assert run_cli(["verify", "--notion", "siso", TWO_INITIALS]) == 1
        assert run_cli(["verify", "--notion", "inf-sso", K_SAFE]) == 1
        capsys.readouterr()

    def test_missing_k_is_usage_error(self, capsys):
        assert run_cli(["verify", "--notion", "k-sso", DELAYED]) == 2
        capsys.readouterr()

    def test_negative_k_is_usage_error(self, capsys):
        assert run_cli(["verify", "--notion", "k-sso", "--k", "-3", DELAYED]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("notion", ["cso", "scso", "siso", "inf-sso"])
    def test_k_with_another_notion_is_usage_error(self, notion, capsys):
        assert run_cli(["verify", "--notion", notion, "--k", "3", DELAYED]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "strongopacity: error: --k applies only to --notion k-sso"

    def test_oversized_k_notice_on_stderr(self, capsys):
        code = run_cli(["verify", "--notion", "k-sso", "--k", "99999", DELAYED])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "notice: K=99999 exceeds the effective bound 383; beyond the bound the verdict no longer changes\n"
        )
        assert "OPAQUE" in captured.out

    def test_unknown_notion(self, capsys):
        assert run_cli(["verify", "--notion", "weak", DELAYED]) == 2
        capsys.readouterr()

    def test_missing_model_file(self, capsys):
        assert run_cli(["verify", "--notion", "cso", "nowhere.json"]) == 2
        capsys.readouterr()

    def test_invalid_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli(["verify", "--notion", "cso", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b'{"states": [{"id": "\xff"}]}', b"[" * 100_000, b'{"states": [{"id": ' + b"9" * 5000 + b', "initial": true}]}'],
        ids=["non-utf8", "deep", "huge-int"],
    )
    def test_undecodable_model_file(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run_cli(["verify", "--notion", "cso", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_non_decimal_digit_names(self, tmp_path):
        # '²' passes str.isdigit but is no decimal digit: a name, not a number.
        model = tmp_path / "superscript.json"
        model.write_text(
            json.dumps(
                {
                    "states": [{"id": "²", "initial": True}, {"id": "1²", "secret": True}],
                    "events": [{"name": "①"}],
                    "transitions": [{"from": "²", "event": "①", "to": "1²"}],
                }
            ),
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "strongopacity", "verify", "--notion", "cso", str(model)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode in (0, 1) and "Traceback" not in done.stderr, done.stderr
        assert done.stdout.splitlines()[0] in ("OPAQUE", "NOT OPAQUE")


class TestEnforceCommand:
    def test_prints_cut_lines(self, capsys):
        code = run_cli(["enforce", "--notion", "scso", TWO_INITIALS])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["3 -a-> 5", "4 -a-> 5", "4 -a-> 7"]

    def test_impossible(self, capsys):
        code = run_cli(["enforce", "--notion", "k-sso", "--k", "2", UNFIXABLE])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "IMPOSSIBLE"
        assert "witness: 0 -(a)-> 14 -(c)-> 15 -(a)-> 16" in out

    def test_out_and_emit_ec(self, tmp_path, capsys):
        sub_path = tmp_path / "subsystem.json"
        ec_path = tmp_path / "cuts.txt"
        code = run_cli(
            [
                "enforce",
                "--notion",
                "siso",
                TWO_INITIALS,
                "--out",
                str(sub_path),
                "--emit-ec",
                str(ec_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert ec_path.read_text().splitlines() == ["3 -u-> 6", "5 -v-> 6"]
        subsystem = parse_model(sub_path.read_bytes())
        assert verify_siso(subsystem).opaque

    @pytest.mark.parametrize("flag", ["--out", "--emit-ec"])
    def test_failed_write_prints_no_cut(self, flag, tmp_path, capsys):
        target = tmp_path / "missing" / "file"
        assert run_cli(["enforce", "--notion", "scso", TWO_INITIALS, flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("failing", ["--out", "--emit-ec"])
    def test_failed_write_removes_the_files_written(self, failing, tmp_path, capsys):
        # One of the two files cannot be opened: the command writes neither.
        paths = {"--out": tmp_path / "subsystem.json", "--emit-ec": tmp_path / "cuts.txt"}
        paths[failing] = tmp_path / "missing" / "file"
        argv = ["enforce", "--notion", "scso", TWO_INITIALS, "--emit-ec", str(paths["--emit-ec"])]
        assert run_cli(argv + ["--out", str(paths["--out"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", ["file", "device"])
    def test_failed_write_keeps_a_path_that_existed(self, existing, tmp_path, monkeypatch, capsys):
        # The cut file existed before the call, so the failed --out write
        # must not remove it, be it a regular file or a device node.
        removed = []
        monkeypatch.setattr(cli.os, "remove", removed.append)
        cuts = tmp_path / "cuts.txt"
        cuts.write_text("old\n")
        emit_ec = str(cuts) if existing == "file" else os.devnull
        missing = str(tmp_path / "missing" / "file")
        argv = ["enforce", "--notion", "scso", TWO_INITIALS, "--emit-ec", emit_ec, "--out", missing]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert removed == []
        assert os.path.exists(emit_ec)

    def test_k_sso_requires_k(self, capsys):
        assert run_cli(["enforce", "--notion", "k-sso", DELAYED]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("notion", ["cso", "scso", "siso", "inf-sso"])
    def test_k_with_another_notion_is_usage_error(self, notion, tmp_path, capsys):
        out = tmp_path / "subsystem.json"
        assert run_cli(["enforce", "--notion", notion, "--k", "0", DELAYED, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "strongopacity: error: --k applies only to --notion k-sso"
        assert not out.exists()

    def test_cso_routes_to_zero_budget(self, capsys):
        assert run_cli(["enforce", "--notion", "cso", DELAYED]) == 0
        out = capsys.readouterr().out
        assert out == ""  # already opaque: nothing disabled

    def test_oversized_k_notice_on_enforce(self, capsys):
        code = run_cli(["enforce", "--notion", "k-sso", "--k", "424242", DELAYED])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == (
            "notice: K=424242 exceeds the effective bound 383; beyond the bound the verdict no longer changes\n"
        )
        # the larger window pulls the loop edge into the frontier as well
        assert captured.out.splitlines() == ["4 -b-> 5", "7 -b-> 8", "8 -b-> 8"]


class TestExportCommand:
    @pytest.mark.parametrize("structure", ["observer", "cc-hat", "cc-obs", "cc-dss"])
    def test_writes_deterministic_dot(self, structure, tmp_path, capsys):
        first = tmp_path / "first.dot"
        second = tmp_path / "second.dot"
        for target in (first, second):
            assert (
                run_cli(["export", "--structure", structure, DELAYED, "--out", str(target)])
                == 0
            )
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().startswith("digraph ")

    def test_unknown_structure(self, capsys):
        assert run_cli(["export", "--structure", "mystery", DELAYED, "--out", "x.dot"]) == 2
        capsys.readouterr()


class TestLongDecimalNames:
    """A state named by more decimal digits than ``int`` converts by default
    (4,300) sorts by value, and no command fails on it."""

    LONG = "1" * 5000

    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(
            json.dumps(
                {
                    "states": [{"id": self.LONG, "initial": True}, {"id": "2", "secret": True}],
                    "events": [{"name": "a"}],
                    "transitions": [{"from": self.LONG, "event": "a", "to": "2"}],
                }
            ),
            encoding="utf-8",
        )
        return str(path)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "--notion", "cso"], 1),
            (["verify", "--notion", "scso"], 1),
            (["verify", "--notion", "k-sso", "--k", "1"], 1),
            (["enforce", "--notion", "inf-sso"], 0),
            (["bound"], 0),
            (["export", "--structure", "observer"], 0),
            (["export", "--structure", "cc-hat"], 0),
            (["export", "--structure", "cc-obs"], 0),
            (["export", "--structure", "cc-dss"], 0),
        ],
    )
    def test_every_command_answers(self, argv, code, model, tmp_path, capsys):
        out = ["--out", str(tmp_path / "out.dot")] if argv[0] == "export" else []
        assert run_cli(argv + out + [model]) == code
        assert capsys.readouterr().err == ""

    def test_export_lists_states_by_value(self, model, tmp_path, capsys):
        dot = tmp_path / "cc.dot"
        assert run_cli(["export", "--structure", "cc-obs", model, "--out", str(dot)]) == 0
        nodes = [line.split('"')[1] for line in dot.read_text(encoding="utf-8").splitlines() if "initial=" in line]
        assert nodes == ["(2,{2})", f"({self.LONG},{{{self.LONG}}})"]


class TestBoundCommand:
    def test_prints_bound(self, capsys):
        assert run_cli(["bound", DELAYED]) == 0
        assert capsys.readouterr().out.strip() == "383"

    def test_bound_past_the_int_digit_limit(self, tmp_path, capsys):
        # A chain of 14,400 states from a secret initial one: the bound,
        # 14,400 * 2^14,399 - 1, has more decimal digits than ``str`` of an
        # int gives by default.
        n = 14_400
        model = tmp_path / "chain.json"
        model.write_text(
            json.dumps(
                {
                    "states": [{"id": str(i), "initial": i == 0, "secret": i == 0} for i in range(n)],
                    "events": [{"name": "a"}],
                    "transitions": [{"from": str(i), "event": "a", "to": str(i + 1)} for i in range(n - 1)],
                }
            ),
            encoding="utf-8",
        )
        assert run_cli(["bound", str(model)]) == 0
        captured = capsys.readouterr()
        text = captured.out.strip()
        assert captured.err == "" and text.isdecimal() and len(text) > 4300
        assert Decimal(text) == n * 2 ** (n - 1) - 1

    def test_exit_code_contract(self, capsys):
        # 0 = opaque/enforced, 1 = not opaque/impossible, 2 = usage/model error
        assert run_cli(["verify", "--notion", "cso", DELAYED]) == 0
        assert run_cli(["verify", "--notion", "scso", TWO_INITIALS]) == 1
        assert run_cli(["bogus"]) == 2
        capsys.readouterr()


def run_captured(argv):
    """``run_cli`` under its own stdout and stderr: the exit code and both texts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    """``run_cli`` builds its parser once per process; one call leaves
    nothing behind for the next."""

    def test_each_call_writes_to_its_current_streams(self):
        code, out, err = run_captured(["verify", "--notion", "bogus", DELAYED])
        assert (code, out) == (2, "") and "argument --notion: invalid choice: 'bogus'" in err
        code, out, err = run_captured(["verify", "--notion", "scso", TWO_INITIALS])
        assert (code, err) == (1, "") and out.startswith("NOT OPAQUE\nwitness: ")
        code, out, err = run_captured(["verify", "--notion", "cso", "--k", "3", DELAYED])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "strongopacity: error: --k applies only to --notion k-sso"

    def test_no_file_option_carries_over(self, tmp_path):
        sub_path, ec_path = tmp_path / "subsystem.json", tmp_path / "cuts.txt"
        argv = ["enforce", "--notion", "scso", TWO_INITIALS]
        first = run_captured(argv + ["--out", str(sub_path), "--emit-ec", str(ec_path)])
        sub_path.unlink()
        ec_path.unlink()
        assert run_captured(argv) == first == (0, "3 -a-> 5\n4 -a-> 5\n4 -a-> 7\n", "")
        assert list(tmp_path.iterdir()) == []

    def test_replaced_verifier_is_called(self, monkeypatch):
        argv = ["verify", "--notion", "scso", TWO_INITIALS]
        assert run_captured(argv)[0] == 1
        monkeypatch.setattr(cli, "verify_scso", lambda model: Verdict(True, "scso"))
        assert run_captured(argv) == (0, "OPAQUE\n", "")


ZERO_PADDED = str(MODELS / "zero_padded.json")

# Runs every command on the zero-padded model in one process and prints what
# each printed and wrote, so two hash seeds can be compared.
_HASH_PROBE = """
import contextlib, io, sys
from strongopacity.cli import run_cli
model, dot = sys.argv[1], sys.argv[2]
for argv in (
    ["verify", "--notion", "cso", model],
    ["verify", "--notion", "scso", model],
    ["verify", "--notion", "inf-sso", model],
    ["verify", "--notion", "k-sso", "--k", "1", model],
    ["enforce", "--notion", "inf-sso", model],
    ["export", "--structure", "cc-dss", model, "--out", dot],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    print(argv[:3], code, out.getvalue())
print(open(dot, encoding="utf-8").read())
"""


class TestHashSeedIndependence:
    """State names that differ only by leading zeros ('1' and '01') have
    distinct natural-order keys, so no output depends on set iteration order."""

    def _probe(self, hash_seed: str, tmp_path) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE, ZERO_PADDED, str(tmp_path / f"{hash_seed}.dot")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0 and done.stderr == "", done.stderr
        return done.stdout

    def test_outputs_identical_under_hash_seeds(self, tmp_path):
        first = self._probe("0", tmp_path)
        assert "['verify', '--notion', 'cso'] 1 NOT OPAQUE\nwitness: {0} -(a)-> {01,1}" in first
        assert "['verify', '--notion', 'scso'] 1 NOT OPAQUE" in first
        for hash_seed in ("1", "2", "3", "4", "5"):
            assert self._probe(hash_seed, tmp_path) == first, f"PYTHONHASHSEED={hash_seed}"

    def test_no_crash_on_tied_names(self, capsys):
        assert run_cli(["verify", "--notion", "scso", ZERO_PADDED]) == 1
        assert run_cli(["verify", "--notion", "inf-sso", ZERO_PADDED]) == 1
        assert run_cli(["enforce", "--notion", "inf-sso", ZERO_PADDED]) in (0, 1)
        out = capsys.readouterr().out
        assert out.count("witness: (0,{0}) -((a,a))-> ") == 2


class TestNotionOption:
    def test_choices_and_usage_unchanged(self, capsys):
        for command in ("verify", "enforce"):
            assert run_cli([command, "--help"]) == 0
            usage = capsys.readouterr().out
            assert "--notion {k-sso,cso,scso,siso,inf-sso}" in usage


class TestProcessEntryPoint:
    """``python -m strongopacity`` prints and exits as ``run_cli`` returns."""

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["verify", "--notion", "scso", TWO_INITIALS], 1),
            (["enforce", "--notion", "scso", TWO_INITIALS], 0),
            (["bound", DELAYED], 0),
            (["verify", "--notion", "k-sso", DELAYED], 2),  # --k missing
        ],
        ids=["verify", "enforce", "bound", "usage"],
    )
    def test_same_output_and_exit_code(self, argv, exit_code, capsys):
        assert run_cli(argv) == exit_code
        out = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "strongopacity", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (exit_code, out), done.stderr
