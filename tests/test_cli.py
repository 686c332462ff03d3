import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dysonct.cli as cli
import dysonct.turbo as turbo
from conftest import latex_balanced
from dysonct.cli import EXIT_INTERNAL, EXIT_IO, EXIT_MATH, EXIT_OK, EXIT_USAGE, main
from dysonct.conjecture import (
    DEFAULT_MAX_T,
    ClosedForm,
    GuessError,
    guess_dyson,
    guess_dyson_with_details,
)
from dysonct.poly import Poly
from dysonct.prover import CheckOutcome, ProofError, Resolver
from dysonct.ratfunc import RatFunc
from dysonct.store import ResultStore, StoreEntry


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DYSON_STORE", raising=False)
    return tmp_path


def test_ct_examples(capsys):
    assert main(["ct", "-n", "3", "-a", "1,1,1", "-b", "0,0,0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "6"
    assert main(["ct", "-n", "2", "-a", "1,1", "-b", "1,-1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["ct", "-n", "3", "-a", "1,1,1", "-b", "1,0,0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"


def test_ct_usage_errors(capsys):
    assert main(["ct", "-n", "3", "-a", "1,1", "-b", "0,0,0"]) == EXIT_USAGE
    assert main(["ct", "-n", "2", "-a", "1,x", "-b", "0,0"]) == EXIT_USAGE
    assert main(["ct", "-n", "2", "-a", "-1,1", "-b", "0,0"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    capsys.readouterr()


def test_guess_2m1m1(capsys):
    assert main(["guess", "-n", "3", "-b", "2,-1,-1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "d_3(a; <2,-1,-1>)" in out
    assert "a_2*a_3*(2+2a_1+a_2+a_3)" in out
    assert "(1+a_1+a_2)*(1+a_1+a_3)*(1+a_1)" in out


def test_guess_single_move_and_multinomial(capsys):
    assert main(["guess", "-n", "3", "-b", "-1,0,1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-1*a_1 * (a_1+a_2+a_3)!" in out and "(1+a_2+a_3)" in out
    assert main(["guess", "-n", "3", "-b", "0,0,0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "= (a_1+a_2+a_3)! / (a_1! a_2! a_3!)" in out


def test_guess_gives_up_cleanly(capsys):
    assert main(["guess", "-n", "3", "-b", "2,-1,-1", "--max-t", "0"]) == EXIT_MATH
    assert capsys.readouterr().err == (
        "no closed form found: no rational form of total degree <= 0 matches "
        "c_3(a; <2,-1,-1>) on 10 samples (retry with a larger --max-t)\n"
    )


@pytest.mark.parametrize("argv", [["-n", "0", "-b", "0"], ["-n", "-2", "-b", "1"]], ids=["0", "-2"])
def test_guess_names_its_bound_on_n(capsys, argv):
    assert main(["guess", *argv]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: guess requires n >= 1\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        ("prove -n 0 -b 0", "usage error: prove requires n >= 2\n"),
        ("prove -n -1 -b 1", "usage error: prove requires n >= 2\n"),
        ("write-paper -n 0 -b 0", "usage error: write-paper requires n >= 2\n"),
    ],
    ids=["prove-0", "prove-minus-1", "write-paper-0"],
)
def test_prove_names_its_bound_on_n(capsys, argv, err):
    # the bound on n is checked before the length of -b, as guess does
    assert main(argv.split()) == EXIT_USAGE
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "argv",
    [
        ["guess", "-n", "3", "-b", "2,-1,-1", "--max-t", "-1"],
        ["prove", "-n", "3", "-b", "2,-1,-1", "--max-t", "-1"],
        ["write-paper", "-n", "3", "-b", "2,-1,-1", "--max-t", "-1"],
        ["turbo", "-n", "3", "-C", "1", "--max-t", "-1"],
        ["turbo", "-n", "3", "-C", "-1"],
    ],
    ids=["guess", "prove", "write-paper", "turbo", "turbo-complexity"],
)
def test_negative_degree_budget_or_complexity_is_a_usage_error(
    tmp_path, monkeypatch, capsys, argv
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started despite a negative argument")

    for name in ("guess_dyson", "prove", "turbo_dyson", "ResultStore"):
        monkeypatch.setattr(cli, name, no_work)
    assert main(argv) == EXIT_USAGE
    flag = argv[-2]
    assert f"{flag}: expected a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_prove_writes_document_and_store(tmp_path, capsys):
    code = main(["prove", "-n", "3", "-b", "2,-1,-1", "--format", "latex"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    doc_path = tmp_path / "proof_n3_b2_m1_m1.tex"
    assert doc_path.exists()
    assert latex_balanced(doc_path.read_text())
    store = ResultStore.load(str(tmp_path / "dyson-store.json"))
    assert store.get(3, (2, -1, -1)) is not None
    # dependency forms are archived as well
    assert store.get(2, (1, -1)) is not None


def test_write_paper_alias_and_custom_out(tmp_path):
    code = main(
        ["write-paper", "-n", "3", "-b", "1,0,0", "--out", "zero.md", "--format", "markdown"]
    )
    assert code == EXIT_OK
    text = (tmp_path / "zero.md").read_text()
    assert "= 0" in text


def test_prove_failure_leaves_no_document(tmp_path, capsys):
    code = main(["prove", "-n", "3", "-b", "2,-1,-1", "--max-t", "0"])
    assert code == EXIT_MATH
    assert not list(tmp_path.glob("proof_*"))


def test_turbo_summary_and_idempotence(tmp_path, capsys):
    assert main(["turbo", "-n", "3", "-C", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "7 new entries" in out
    assert "guessed" in out and "permuted" in out
    assert main(["turbo", "-n", "3", "-C", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 new entries" in out


def test_cached_turbo_and_prove_leave_the_store_file_alone(tmp_path, capsys):
    sweep = ["turbo", "-n", "3", "-C", "1", "--store", "s.json"]
    certify = ["prove", "-n", "3", "-b", "1,-1,0", "--store", "s.json"]
    assert main(sweep) == EXIT_OK
    assert main(certify) == EXIT_OK  # adds the n = 2 dependencies
    assert "store updated at s.json" in capsys.readouterr().out
    path = tmp_path / "s.json"

    def state():
        info = path.stat()
        return info.st_ino, info.st_mtime_ns, path.read_bytes()

    before = state()
    assert main(sweep) == EXIT_OK
    assert "0 new entries" in capsys.readouterr().out
    assert state() == before
    assert main(certify) == EXIT_OK
    assert "store unchanged at s.json" in capsys.readouterr().out
    assert state() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["proof_n3_b1_m1_0.md", "s.json"]


def test_turbo_n2_store_contents(tmp_path, capsys):
    assert main(["turbo", "-n", "2", "-C", "2", "--store", "c2.json"]) == EXIT_OK
    capsys.readouterr()
    store = ResultStore.load(str(tmp_path / "c2.json"))
    assert len(store) == 5
    from dysonct.prover import c2_closed_form

    for entry in store:
        assert entry.form.R == c2_closed_form(entry.b).R


def test_prove_refuses_a_stored_n2_form_that_is_not_the_closed_form(tmp_path, capsys):
    # the base case is the binomial theorem, which certifies c2_closed_form
    # alone: an n = 2 entry edited by hand must not be certified
    assert main(["turbo", "-n", "2", "-C", "1", "--store", "s.json"]) == EXIT_OK
    path = tmp_path / "s.json"
    data = json.loads(path.read_text())
    (entry,) = [e for e in data["entries"] if e["b"] == [1, -1]]
    for term in entry["R"]["num_terms"]:
        term[0] *= 2
    path.write_text(json.dumps(data))
    raw = path.read_bytes()
    capsys.readouterr()
    assert main(["prove", "-n", "2", "-b", "1,-1", "--store", "s.json"]) == EXIT_MATH
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith("mathematical failure: proof of d_2(a; <1,-1>) failed")
    assert path.read_bytes() == raw
    assert not list(tmp_path.glob("proof_*"))


def test_prove_refuses_a_stored_n3_form_that_fails_a_check(tmp_path, capsys):
    # R + a_1 breaks the recursion; the report names the form and carries
    # the difference, and nothing is written
    right = guess_dyson(3, (2, -1, -1))
    R = right.R
    wrong = ClosedForm(3, right.b, RatFunc.coprime(R.num + Poly.variable(3, 0) * R.den, R.den))
    store = ResultStore()
    store.add(StoreEntry(3, wrong.b, wrong, {"kind": "guessed"}, {}))
    path = tmp_path / "s.json"
    store.save(str(path))
    raw = path.read_bytes()
    assert main(["prove", "-n", "3", "-b", "2,-1,-1", "--store", "s.json"]) == EXIT_MATH
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith("mathematical failure: proof of d_3(a; <2,-1,-1>) failed:")
    assert "; difference" in captured.err
    assert path.read_bytes() == raw
    assert not list(tmp_path.glob("proof_*"))


def test_store_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DYSON_STORE", str(tmp_path / "env.json"))
    assert main(["turbo", "-n", "2", "-C", "0"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "env.json").exists()


def test_io_failure_exit_code(tmp_path, capsys):
    code = main(
        ["prove", "-n", "3", "-b", "1,0,0", "--store", str(tmp_path / "no/dir/s.json")]
    )
    assert code == EXIT_IO
    capsys.readouterr()


def test_malformed_store_entry_exit_code(tmp_path, capsys):
    assert main(["turbo", "-n", "2", "-C", "1", "--store", "s.json"]) == EXIT_OK
    path = tmp_path / "s.json"
    data = json.loads(path.read_text())
    del data["entries"][0]["R"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["turbo", "-n", "2", "-C", "1", "--store", "s.json"]) == EXIT_IO
    assert "malformed entry 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["turbo", "-n", "3", "-C", "1"], ["prove", "-n", "3", "-b", "1,-1,0"]])
def test_store_entry_with_non_object_certificate_exit_code(tmp_path, capsys, argv):
    assert main(["turbo", "-n", "3", "-C", "1", "--store", "s.json"]) == EXIT_OK
    path = tmp_path / "s.json"
    data = json.loads(path.read_text())
    data["entries"][0].update(certificate=5, provenance="oops")
    path.write_text(json.dumps(data))
    raw = path.read_bytes()
    capsys.readouterr()
    assert main(argv + ["--store", "s.json"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: store s.json has a malformed entry 0 (n=3, b=")
    assert path.read_bytes() == raw


def test_store_that_is_not_utf8_exit_code(tmp_path, capsys):
    (tmp_path / "s.json").write_bytes(b'{"version": 1, "entries": [\xff]}')
    assert main(["turbo", "-n", "2", "-C", "1", "--store", "s.json"]) == EXIT_IO
    assert "cannot read store s.json" in capsys.readouterr().err


def test_unexpected_exception_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(cli, "turbo_dyson", broken)
    assert main(["turbo", "-n", "2", "-C", "1"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: simulated defect\n"


@pytest.mark.parametrize(
    "exc, message",
    [
        (GuessError("no rational form fits the samples"), "no rational form fits the samples"),
        (
            ProofError(
                ClosedForm(3, (0, -1, 1), RatFunc.const(3, 1)),
                CheckOutcome(ok=False, check="boundary", k=1),
            ),
            "proof of d_3(a; <0,-1,1>) failed: boundary at k=2 does not hold",
        ),
    ],
    ids=["guess-error", "proof-error"],
)
def test_turbo_records_failed_entry_and_keeps_the_rest(
    tmp_path, monkeypatch, capsys, exc, message
):
    bad = (0, -1, 1)
    real_prove = turbo.prove

    def prove_failing_once(n, b, resolver):
        if tuple(b) == bad:
            raise exc
        return real_prove(n, b, resolver)

    monkeypatch.setattr(turbo, "prove", prove_failing_once)
    monkeypatch.setattr(cli, "prove", prove_failing_once)
    assert main(["turbo", "-n", "3", "-C", "1", "--store", "s.json"]) == EXIT_MATH
    out = capsys.readouterr().out
    assert f"<0,-1,1>  FAILED: {message}\n" in out
    assert "6 new entries" in out
    store = ResultStore.load(str(tmp_path / "s.json"))
    assert len(store) == 6
    assert (3, bad) not in store
    assert main(["prove", "-n", "3", "-b", "0,-1,1", "--store", "s.json"]) == EXIT_MATH
    assert capsys.readouterr().err == f"mathematical failure: {message}\n"


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_an_interrupted_turbo_keeps_the_entries_it_certified(tmp_path, monkeypatch, exc):
    real_prove = turbo.prove
    calls = []

    def prove_stopping_at_the_fourth(n, b, resolver):
        calls.append(b)
        if len(calls) == 4:
            raise exc("simulated stop")
        return real_prove(n, b, resolver)

    monkeypatch.setattr(turbo, "prove", prove_stopping_at_the_fourth)
    argv = ["turbo", "-n", "3", "-C", "1", "--store", "s.json"]
    if exc is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == EXIT_INTERNAL
    assert len(ResultStore.load(str(tmp_path / "s.json"))) == 3


def test_every_entry_point_has_the_same_default_degree_budget():
    parser = cli._build_parser()
    commands = [
        ["guess", "-n", "3", "-b", "0,0,0"],
        ["prove", "-n", "3", "-b", "0,0,0"],
        ["write-paper", "-n", "3", "-b", "0,0,0"],
        ["turbo", "-n", "3", "-C", "1"],
    ]
    defaults = {parser.parse_args(argv).max_t for argv in commands}
    defaults.add(Resolver().max_t)
    for fit in (guess_dyson, guess_dyson_with_details):
        defaults.add(inspect.signature(fit).parameters["max_t"].default)
    assert defaults == {DEFAULT_MAX_T}


SRC = Path(__file__).resolve().parents[1] / "src"
# runs the CLI on its arguments, then prints whether numpy was loaded
RUN_CLI = (
    "import dysonct, dysonct.cli; code = dysonct.cli.main(sys.argv[1:]); "
    "print(sys.modules.get('numpy') is not None, file=sys.stderr); sys.exit(code)"
)
BLOCK_NUMPY = "sys.modules['numpy'] = None; "


def _fresh_cli(argv, *, block_numpy):
    """The CLI run on argv in a new interpreter, numpy unimportable if asked."""
    env = {k: v for k, v in os.environ.items() if k != "DYSON_STORE"}
    env["PYTHONPATH"] = str(SRC)
    code = "import sys; " + (BLOCK_NUMPY if block_numpy else "") + RUN_CLI
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_commands_that_fit_nothing_run_without_numpy(tmp_path):
    ct5 = _fresh_cli(["ct", "-n", "5", "-a", "6,7,8,9,10", "-b", "0,0,0,0,0"], block_numpy=True)
    assert (ct5.returncode, ct5.stdout) == (EXIT_OK, "4234824783966213204768000\n")
    assert _fresh_cli(["--help"], block_numpy=True).returncode == 0
    assert _fresh_cli(["ct", "-n", "2"], block_numpy=True).returncode == EXIT_USAGE
    sweep = ["turbo", "-n", "3", "-C", "1", "--store", "s.json"]
    certify = ["prove", "-n", "3", "-b", "2,-1,-1", "--store", "s.json"]
    assert main(sweep) == EXIT_OK and main(certify) == EXIT_OK
    stored = (tmp_path / "s.json").read_bytes()
    for argv in (certify, sweep):
        run = _fresh_cli(argv, block_numpy=True)
        assert run.returncode == EXIT_OK, run.stderr
    assert (tmp_path / "s.json").read_bytes() == stored


def test_no_module_imports_a_sibling_inside_a_function():
    # the package's modules import each other at module level, so an import
    # cycle between them fails on import instead of hiding in a call
    deferred = set()
    for path in (SRC / "dysonct").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update(
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.ImportFrom) and inner.level
                )
    assert not deferred


def test_a_fit_imports_numpy():
    # the companion of the test above: a fit does load numpy, so that test's
    # blocker would have stopped any command that needed it
    run = _fresh_cli(["guess", "-n", "3", "-b", "1,-1,0"], block_numpy=False)
    assert (run.returncode, run.stderr) == (EXIT_OK, "True\n")
