import inspect
import json

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
from dysonct.prover import CheckOutcome, ProofError, Resolver
from dysonct.ratfunc import RatFunc
from dysonct.store import ResultStore


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
    err = capsys.readouterr().err
    assert "samples" in err


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
    "exc",
    [
        GuessError("no rational form fits the samples"),
        ProofError(
            ClosedForm(3, (0, -1, 1), RatFunc.one(3)),
            CheckOutcome(ok=False, check="boundary", k=1),
        ),
    ],
    ids=["guess-error", "proof-error"],
)
def test_turbo_records_failed_entry_and_keeps_the_rest(tmp_path, monkeypatch, capsys, exc):
    bad = (0, -1, 1)
    real_prove = turbo.prove

    def prove_failing_once(n, b, resolver):
        if tuple(b) == bad:
            raise exc
        return real_prove(n, b, resolver)

    monkeypatch.setattr(turbo, "prove", prove_failing_once)
    assert main(["turbo", "-n", "3", "-C", "1", "--store", "s.json"]) == EXIT_MATH
    out = capsys.readouterr().out
    assert f"FAILED: {exc}" in out
    assert "6 new entries" in out
    store = ResultStore.load(str(tmp_path / "s.json"))
    assert len(store) == 6
    assert (3, bad) not in store


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
