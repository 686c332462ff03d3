import json
import math
import os
import random

import pytest

import dysonct.store as store_module
from dysonct.prover import Resolver, prove
from dysonct.store import (
    ResultStore,
    StoreIOError,
    _json_text,
    _locked,
    store_path,
)
from dysonct.turbo import turbo_dyson


def _small_store():
    store = ResultStore()
    turbo_dyson(2, 1, store=store)
    return store


def test_roundtrip_is_lossless_and_byte_stable(tmp_path):
    store = _small_store()
    path = tmp_path / "s.json"
    store.save(str(path))
    raw = path.read_bytes()
    loaded = ResultStore.load(str(path))
    assert len(loaded) == len(store)
    for entry in store:
        again = loaded.get(entry.n, entry.b)
        assert again is not None
        assert again.form == entry.form
        assert again.provenance == entry.provenance
        assert again.certificate == entry.certificate
    loaded.save(str(path))
    assert path.read_bytes() == raw


def test_missing_file_loads_empty(tmp_path):
    store = ResultStore.load(str(tmp_path / "absent.json"))
    assert len(store) == 0


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(StoreIOError):
        ResultStore.load(str(path))
    path.write_text("[]")
    with pytest.raises(StoreIOError):
        ResultStore.load(str(path))
    path.write_text(json.dumps({"version": 1, "entries": 5}))
    with pytest.raises(StoreIOError):
        ResultStore.load(str(path))


def test_corrupt_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    for raw in (b"{not json", b'{"version": 1, "entries": [\xff]}'):
        path.write_bytes(raw)
        with pytest.raises(StoreIOError, match="cannot read store"):
            ResultStore.load(str(path))


def test_store_path_resolution(monkeypatch):
    monkeypatch.delenv("DYSON_STORE", raising=False)
    assert store_path(None) == "dyson-store.json"
    assert store_path("explicit.json") == "explicit.json"
    monkeypatch.setenv("DYSON_STORE", "/tmp/env-store.json")
    assert store_path(None) == "/tmp/env-store.json"
    assert store_path("flag.json") == "flag.json"


def test_lock_contention(tmp_path):
    target = tmp_path / "locked.json"
    lock = tmp_path / "locked.json.lock"
    lock.write_text("")
    with pytest.raises(StoreIOError):
        with _locked(str(target), timeout=0.2):
            pass
    lock.unlink()
    with _locked(str(target), timeout=0.2):
        assert lock.exists()
    assert not lock.exists()


def test_certificate_survives_serialization(tmp_path):
    cert = prove(3, (2, -1, -1), Resolver())
    store = ResultStore()
    assert store.record(cert, {"kind": "guessed"})
    # a stored (n, b) keeps its entry
    assert not store.record(cert, {"kind": "permuted"})
    assert store.get(3, (2, -1, -1)).provenance == {"kind": "guessed"}
    path = tmp_path / "cert.json"
    store.save(str(path))
    loaded = ResultStore.load(str(path))
    entry = loaded.get(3, (2, -1, -1))
    assert entry.form.R == cert.form.R
    assert entry.certificate["boundary_ok"] == [True, True, True]
    assert len(entry.certificate["dependencies"]) == 3


def test_failed_save_keeps_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    ResultStore().save(str(path))
    raw = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(store_module.os, "replace", failing_replace)
    with pytest.raises(StoreIOError):
        _small_store().save(str(path))
    assert path.read_bytes() == raw
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_save_syncs_the_directory_after_the_replace(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append(("fsync", os.path.samefile(fd, tmp_path)))
        real_fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", None))
        real_replace(src, dst)

    monkeypatch.setattr(store_module.os, "fsync", recording_fsync)
    monkeypatch.setattr(store_module.os, "replace", recording_replace)
    _small_store().save(str(path))
    # the temporary file, then the rename, then the directory holding it
    assert events == [("fsync", False), ("replace", None), ("fsync", True)]


def test_failed_directory_sync_is_a_store_error(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    real_fsync = os.fsync

    def failing_directory_fsync(fd):
        if os.path.samefile(fd, tmp_path):
            raise OSError("simulated directory sync failure")
        real_fsync(fd)

    monkeypatch.setattr(store_module.os, "fsync", failing_directory_fsync)
    with pytest.raises(StoreIOError, match="directory sync"):
        _small_store().save(str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def _write_store_with_entry(path, mutate):
    store = _small_store()
    store.save(str(path))
    data = json.loads(path.read_text())
    mutate(data["entries"][1])
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda entry: entry.pop("provenance"),
        lambda entry: entry["R"].__setitem__("num_terms", [[1, 1]]),
        lambda entry: entry.__setitem__("b", entry["b"][:-1]),
        lambda entry: entry.__setitem__("b", [float(x) for x in entry["b"]]),
        lambda entry: entry["R"].__setitem__("den_terms", []),
        lambda entry: entry.__setitem__("certificate", 5),
        lambda entry: entry.__setitem__("provenance", "oops"),
        lambda entry: entry["provenance"].__setitem__("kind", "made-up"),
        lambda entry: entry["provenance"].pop("kind"),
    ],
    ids=[
        "missing-key",
        "bad-term-list",
        "short-b",
        "float-b",
        "zero-denominator",
        "certificate-not-object",
        "provenance-not-object",
        "unknown-kind",
        "missing-kind",
    ],
)
def test_malformed_entry_rejected(tmp_path, mutate):
    path = tmp_path / "bad.json"
    _write_store_with_entry(path, mutate)
    with pytest.raises(StoreIOError, match="malformed entry 1"):
        ResultStore.load(str(path))


def _stdlib_text(value):
    return json.dumps(value, indent=2, sort_keys=True)


_TRICKY_CHARACTERS = ['"', "\\", "\n", "\x00", "\u00e9", "\u2028", "\U0001d49f", "a", "k"]


def _random_text(rng):
    return "".join(rng.choice(_TRICKY_CHARACTERS) for _ in range(rng.randrange(4)))


def _random_value(rng, depth):
    """A nested value of the types json.loads returns, empty containers included."""
    kind = rng.randrange(9 if depth else 6)
    if kind == 0:
        return rng.randrange(-(2**70), 2**70)
    if kind == 1:
        return _random_text(rng)
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([0.5, -0.0, 1e300, 5e-324, math.inf, -math.inf, math.nan])
    if kind == 4:
        return []
    if kind == 5:
        return {}
    if kind in (6, 7):
        return [_random_value(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
    return {_random_text(rng): _random_value(rng, depth - 1) for _ in range(rng.randrange(1, 4))}


def test_writer_matches_json_dumps_on_stores(tmp_path):
    store = turbo_dyson(3, 2).store
    path = tmp_path / "s.json"
    store.save(str(path))
    for data in (store.to_json(), ResultStore.load(str(path)).to_json(), ResultStore().to_json()):
        assert _json_text(data) == _stdlib_text(data)
    assert path.read_text(encoding="utf-8") == _stdlib_text(store.to_json()) + "\n"


@pytest.mark.parametrize("seed", range(10))
def test_writer_matches_json_dumps_on_random_values(seed):
    rng = random.Random(seed)
    value = [_random_value(rng, 4) for _ in range(30)]
    assert _json_text(value) == _stdlib_text(value)


@pytest.mark.parametrize(
    "value",
    [2**100, -(2**100), True, False, None, -0.0, 1e300, 5e-324, math.nan, math.inf, -math.inf],
)
def test_writer_matches_json_dumps_on_scalars(value):
    assert _json_text(value) == _stdlib_text(value)
    assert _json_text([value, {"v": value}]) == _stdlib_text([value, {"v": value}])


def test_writer_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError):
        _stdlib_text({"v": {1, 2}})
    with pytest.raises(TypeError):
        _json_text({"v": {1, 2}})
