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
    _json_pieces,
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


def test_a_save_that_fails_mid_stream_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    store = _small_store()
    store.save(str(path))
    raw = path.read_bytes()
    last = store.sorted_entries()[-1]
    last.certificate = dict(last.certificate, unencodable={1, 2})
    written = []
    real_pieces = store_module._json_pieces

    def recording_pieces(value):
        for piece in real_pieces(value):
            written.append(piece)
            yield piece

    monkeypatch.setattr(store_module, "_json_pieces", recording_pieces)
    with pytest.raises(TypeError):
        store.save(str(path))
    # the entries before the last one were written before the failure
    assert "".join(written).count('"certificate"') == len(store) - 1
    assert path.read_bytes() == raw
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_record_shares_each_certificate_dict():
    resolver = Resolver()
    cert = prove(3, (2, -1, -1), resolver)
    store = ResultStore()
    for c in (cert, *cert.dependencies):
        store.record(c, {"kind": "base" if c.base_case else "guessed"})
    data = cert.to_json()
    entry = store.get(3, (2, -1, -1)).to_json()
    assert entry["certificate"] is data
    recursion = data["identities"]["recursion"]
    assert entry["R"] is data["form"]["R"] is recursion["lhs"] is recursion["rhs"]
    for dep, embedded in zip(cert.dependencies, data["dependencies"]):
        assert embedded is dep.to_json() is store.get(2, dep.form.b).certificate


def _store_with_shared_dependencies():
    resolver = Resolver()
    store = ResultStore()
    for b in ((2, -1, -1), (1, -1, 0), (0, 1, -1)):
        cert = prove(3, b, resolver)
        for c in (cert, *cert.dependencies):
            store.record(c, {"kind": "base" if c.base_case else "guessed"})
    return store


def _certificates(store):
    """Every certificate dict of the store's trees, once per embedding."""
    certificates = [entry.certificate for entry in store]
    for cert in certificates:
        certificates += cert["dependencies"]
    return certificates


def _embedded(store):
    """Each dependency dict embedded in a stored certificate, by its b."""
    embedded = {}
    for entry in store:
        for dep in entry.certificate["dependencies"]:
            embedded.setdefault(tuple(dep["form"]["b"]), []).append(dep)
    return embedded


def test_load_shares_each_certificate_dict(tmp_path):
    path = tmp_path / "s.json"
    _store_with_shared_dependencies().save(str(path))
    raw = path.read_bytes()
    loaded = ResultStore.load(str(path))
    embedded = _embedded(loaded)
    # an n = 2 certificate embedded in two trees loads as its entry's dict
    assert max(map(len, embedded.values())) >= 2
    for b, deps in embedded.items():
        assert all(dep is loaded.get(2, b).certificate for dep in deps), b
    loaded.save(str(path))
    assert path.read_bytes() == raw


def test_load_shares_each_rational_function_dict_as_a_fresh_store_does(tmp_path):
    path = tmp_path / "s.json"
    fresh = turbo_dyson(3, 3).store
    fresh.save(str(path))
    raw = path.read_bytes()
    loaded = ResultStore.load(str(path))
    for entry in loaded:
        assert entry.to_json()["R"] is entry.certificate["form"]["R"]
    boundaries = 0
    for cert in _certificates(loaded):
        identities = cert["identities"]
        if "recursion" in identities:
            recursion = identities["recursion"]
            assert recursion["lhs"] is recursion["rhs"] is cert["form"]["R"]
        for boundary in identities.get("boundary", ()):
            if "lhs" in boundary:
                assert boundary["lhs"] is boundary["rhs"]
                boundaries += 1
    assert boundaries
    # a save after the load renders no more dicts than one from fresh
    # certificates, each certificate's R and boundary sides among them
    memo, fresh_memo = {}, {}
    _json_text(loaded.to_json(), "\n", memo)
    _json_text(fresh.to_json(), "\n", fresh_memo)
    assert len(memo) <= len(fresh_memo)
    for cert in _certificates(loaded):
        sides = [b["lhs"] for b in cert["identities"].get("boundary", ()) if "lhs" in b]
        assert {id(d) for d in (cert["form"]["R"], *sides)} <= set(memo)
    loaded.save(str(path))
    assert path.read_bytes() == raw


def test_load_keeps_unequal_certificates_of_one_form_apart(tmp_path):
    path = tmp_path / "s.json"
    _store_with_shared_dependencies().save(str(path))
    data = json.loads(path.read_text())
    # the n = 3 entries come last; mark one embedding of a shared certificate
    entries = [e for e in data["entries"] if e["n"] == 3]
    dep = entries[-1]["certificate"]["dependencies"][0]
    dep["identities"]["note"] = "differs"
    path.write_text(_stdlib_text(data) + "\n")
    raw = path.read_bytes()
    loaded = ResultStore.load(str(path))
    b = tuple(dep["form"]["b"])
    marked = [d for d in _embedded(loaded)[b] if "note" in d["identities"]]
    assert len(marked) == 1 and marked[0] is not loaded.get(2, b).certificate
    loaded.save(str(path))
    assert path.read_bytes() == raw


def test_each_save_renders_the_store_as_it_is_then(tmp_path):
    path = tmp_path / "s.json"
    resolver = Resolver()
    store = ResultStore()
    store.record(prove(3, (1, -1, 0), resolver), {"kind": "guessed"})
    store.save(str(path))
    assert path.read_text(encoding="utf-8") == _stdlib_text(store.to_json()) + "\n"
    # the new certificate embeds the first one, one level deeper
    cert = prove(4, (1, -1, 0, 0), resolver)
    assert resolver.certificates[3, (1, -1, 0)] in cert.dependencies
    store.record(cert, {"kind": "guessed"})
    store.save(str(path))
    assert path.read_text(encoding="utf-8") == _stdlib_text(store.to_json()) + "\n"


def _write_store_with_entries(path, mutate):
    store = _small_store()
    store.save(str(path))
    data = json.loads(path.read_text())
    mutate(data["entries"])
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda entries: entries[1].pop("provenance"),
        lambda entries: entries[1]["R"].__setitem__("num_terms", [[1, 1]]),
        lambda entries: entries[1].__setitem__("b", entries[1]["b"][:-1]),
        lambda entries: entries[1].__setitem__("b", [float(x) for x in entries[1]["b"]]),
        lambda entries: entries[1]["R"].__setitem__("den_terms", []),
        lambda entries: entries[1].__setitem__("certificate", 5),
        lambda entries: entries[1].__setitem__("provenance", "oops"),
        lambda entries: entries[1]["provenance"].__setitem__("kind", "made-up"),
        lambda entries: entries[1]["provenance"].pop("kind"),
        lambda entries: entries[1]["R"]["num_terms"][0][2].__setitem__(0, 1.0),
        lambda entries: entries[1]["R"]["num_terms"].append(entries[1]["R"]["num_terms"][0]),
        lambda entries: entries[1]["R"]["den_terms"][0].__setitem__(2, [False, True]),
        lambda entries: entries[1]["R"]["num_terms"][0].__setitem__(1, -1),
        lambda entries: entries.insert(1, entries[0]),
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
        "float-exponent",
        "repeated-monomial",
        "bool-exponents",
        "negative-term-denominator",
        "repeated-n-b",
    ],
)
def test_malformed_entry_rejected(tmp_path, mutate):
    path = tmp_path / "bad.json"
    _write_store_with_entries(path, mutate)
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
    one = ResultStore()
    one.record(prove(3, (2, -1, -1), Resolver()), {"kind": "guessed"})
    loaded = ResultStore.load(str(path))
    for data in (store.to_json(), loaded.to_json(), one.to_json(), ResultStore().to_json()):
        assert _json_text(data, "\n", {}) == _stdlib_text(data)
        # a save streams the entries through the same renderer
        assert "".join(_json_pieces(data)) == _stdlib_text(data) + "\n"
    assert path.read_text(encoding="utf-8") == _stdlib_text(store.to_json()) + "\n"
    # the writer renders once every certificate and every rational function
    # the store's certificate trees hold, wherever each recurs
    memo = {}
    _json_text(store.to_json(), "\n", memo)
    for cert in _certificates(store):
        identities = cert["identities"]
        checked = [identities.get("recursion"), *identities.get("boundary", ())]
        shared = [cert, cert["form"]["R"], *(identity["lhs"] for identity in checked if identity)]
        assert {id(d) for d in shared} <= set(memo)


@pytest.mark.parametrize("seed", range(10))
def test_writer_matches_json_dumps_on_random_values(seed):
    rng = random.Random(seed)
    value = [_random_value(rng, 4) for _ in range(30)]
    assert _json_text(value, "\n", {}) == _stdlib_text(value)


def _shared_dicts(rng):
    """A rational function's dict and a certificate's dict holding it, the
    two kinds the writer renders once, with strings holding raw newlines and
    the text of an indent."""
    R = {"num_terms": [[1, 2, [0, 1]]], "den_terms": [], "\n  ": "\n  " + _random_text(rng)}
    cert = {"form": {"R": R}, "note": "a\n  b" + _random_text(rng), "deps": [R, _random_value(rng, 2)]}
    return R, cert


@pytest.mark.parametrize("seed", range(10))
def test_writer_renders_a_recurring_dict_as_json_dumps_does(seed):
    rng = random.Random(seed)
    R, cert = _shared_dicts(rng)
    # each dict at the same depth, deeper, shallower and inside the other
    value = [cert, R, cert, {"x": [cert, [R]]}, [[[cert]]], {"form": cert, "R": R}]
    rng.shuffle(value)
    memo = {}
    assert _json_text(value, "\n", memo) == _stdlib_text(value)
    assert {id(R), id(cert)} <= set(memo)


@pytest.mark.parametrize(
    "value",
    [2**100, -(2**100), True, False, None, -0.0, 1e300, 5e-324, math.nan, math.inf, -math.inf],
)
def test_writer_matches_json_dumps_on_scalars(value):
    assert _json_text(value, "\n", {}) == _stdlib_text(value)
    assert _json_text([value, {"v": value}], "\n", {}) == _stdlib_text([value, {"v": value}])


def test_writer_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError):
        _stdlib_text({"v": {1, 2}})
    with pytest.raises(TypeError):
        _json_text({"v": {1, 2}}, "\n", {})
