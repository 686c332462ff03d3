"""JSON persistence of certified closed forms.

The store file is a versioned, human-inspectable archive: one entry per
(n, b) with the canonical serialized rational function, how the entry was
obtained (guessed / permuted / reduced / base), and the full certificate
tree.  A certificate enters the store only through ``ResultStore.record``,
which keeps an entry already stored, and ``ResultStore.seed`` hands the
stored forms to a prover ``Resolver``.  Saving is deterministic (sorted
entries, sorted keys), so re-saving a loaded store reproduces the file byte
for byte.  The file holds the bytes of
``json.dumps(data, indent=2, sort_keys=True)`` plus a trailing newline:
2-space indent, keys sorted, every non-ASCII character as a JSON escape.
One renderer, ``_json_text``, writes them without json's pure-Python
indent encoder, and a save streams the entries through it into the file one
by one.  A save costs what its distinct content costs: a certificate's dict
is built once and shared by its entry and every tree embedding it, as is
its form's R by the checks' equal sides; a load shares equal certificate
and rational-function dicts the same way, and a save renders each shared
dict once.
Writes go through a lock file so concurrent commands cannot interleave, and
replace the file atomically, so a failed or interrupted save leaves the old
file as it was; a save that returns has synced both the file and its
directory.  The file is read and written as UTF-8.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .conjecture import ClosedForm

SCHEMA_VERSION = 1
DEFAULT_STORE = "dyson-store.json"
STORE_ENV = "DYSON_STORE"
PROVENANCE_KINDS = ("guessed", "permuted", "reduced", "base")


class StoreIOError(Exception):
    """Raised for lock or file-system failures around the store, and for
    store files that cannot be read back as entries."""


@dataclass
class StoreEntry:
    n: int
    b: Tuple[int, ...]
    form: ClosedForm
    provenance: dict
    certificate: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "b": list(self.b),
            "R": self.form.to_json()["R"],
            "provenance": self.provenance,
            "certificate": self.certificate,
        }

    @classmethod
    def from_json(cls, data: dict) -> "StoreEntry":
        n, b = data["n"], data["b"]
        if type(n) is not int or n < 2:
            raise ValueError(f"n must be an int >= 2, not {n!r}")
        if type(b) is not list or len(b) != n or any(type(x) is not int for x in b):
            raise ValueError(f"b must be a list of {n} ints, not {b!r}")
        provenance, certificate = data["provenance"], data["certificate"]
        if type(provenance) is not dict or provenance.get("kind") not in PROVENANCE_KINDS:
            raise ValueError(
                f"provenance must be an object with a kind in {PROVENANCE_KINDS}, not {provenance!r}"
            )
        if type(certificate) is not dict:
            raise ValueError(f"certificate must be an object, not {certificate!r}")
        form = ClosedForm.from_json({"n": n, "b": b, "R": data["R"]})
        return cls(n=n, b=form.b, form=form, provenance=provenance, certificate=certificate)


class ResultStore:
    """Mapping from (n, b) to certified entries, persisted as JSON."""

    def __init__(self):
        self.entries: Dict[Tuple[int, Tuple[int, ...]], StoreEntry] = {}

    def __contains__(self, key: Tuple[int, Tuple[int, ...]]) -> bool:
        n, b = key
        return (n, tuple(b)) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, n: int, b) -> Optional[StoreEntry]:
        return self.entries.get((n, tuple(b)))

    def add(self, entry: StoreEntry) -> None:
        self.entries[(entry.n, entry.b)] = entry

    def record(self, cert, provenance: dict) -> bool:
        """Add the entry of the proof certificate ``cert`` with
        ``provenance``, unless its (n, b) is already stored; True when an
        entry was added.  This is how every certificate enters the store."""
        form = cert.form
        if (form.n, form.b) in self.entries:
            return False
        self.add(
            StoreEntry(
                n=form.n,
                b=form.b,
                form=form,
                provenance=provenance,
                certificate=cert.to_json(),
            )
        )
        return True

    def seed(self, resolver) -> None:
        """Give a prover ``Resolver`` every stored form, so that it answers
        from them before it fits anything."""
        for entry in self:
            resolver.add_form(entry.form)

    def __iter__(self) -> Iterator[StoreEntry]:
        return iter(self.sorted_entries())

    def sorted_entries(self) -> list[StoreEntry]:
        return [
            self.entries[key]
            for key in sorted(
                self.entries, key=lambda k: (k[0], sum(abs(x) for x in k[1]), k[1])
            )
        ]

    def to_json(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "entries": [e.to_json() for e in self.sorted_entries()],
        }

    def save(self, path: str) -> None:
        data = self.to_json()
        with _locked(path):
            try:
                _replace_file(path, _json_pieces(data))
            except OSError as exc:
                raise StoreIOError(f"cannot write store {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "ResultStore":
        store = cls()
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return store
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreIOError(f"cannot read store {path}: {exc}") from exc
        version = data.get("version") if isinstance(data, dict) else None
        if version != SCHEMA_VERSION:
            raise StoreIOError(f"store {path} has unsupported version {version!r}")
        entries = data.get("entries", [])
        if not isinstance(entries, list):
            raise StoreIOError(f"store {path} has no entry list")
        # certificate dicts by their form's (n, b), so that every embedding of
        # one certificate loads as one dict, as record builds it, and a save
        # renders it once
        shared: Dict[tuple, dict] = {}
        for index, raw in enumerate(entries):
            try:
                entry = StoreEntry.from_json(raw)
                if (entry.n, entry.b) in store.entries:
                    raise ValueError(f"a second entry for n={entry.n}, b={list(entry.b)}")
                # the entry's R is its certificate's, as record stores them
                if entry.certificate.get("form") == entry.form.to_json():
                    entry.certificate["form"] = entry.form.to_json()
                entry.certificate = _share_certificate(entry.certificate, shared)
                store.add(entry)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                label = f"entry {index}"
                if isinstance(raw, dict):
                    label += f" (n={raw.get('n')!r}, b={raw.get('b')!r})"
                raise StoreIOError(f"store {path} has a malformed {label}: {exc!r}") from exc
        return store


def _share_certificate(cert: dict, shared: Dict[tuple, dict]) -> dict:
    """``cert`` with its dependencies and its checks' sides shared first, in
    place, or the certificate dict of the same form's (n, b) in ``shared``
    when that one is equal to it; a certificate whose (n, b) is new there is
    added.  A dict that does not read as a certificate is left as it is."""
    deps = cert.get("dependencies")
    if type(deps) is list:
        deps[:] = [_share_certificate(d, shared) if type(d) is dict else d for d in deps]
    form = cert.get("form")
    if type(form) is not dict or type(form.get("b")) is not list:
        return cert
    # each check's sides share the form's R, and each other, where equal,
    # as ProofCertificate.to_json builds them
    identities = cert.get("identities")
    if type(identities) is dict:
        boundary = identities.get("boundary")
        checks = [identities.get("recursion"), identities.get("initial")]
        for check in checks + (boundary if type(boundary) is list else []):
            if type(check) is dict and "lhs" in check:
                if check["lhs"] == form.get("R"):
                    check["lhs"] = form["R"]
                if check.get("rhs") == check["lhs"]:
                    check["rhs"] = check["lhs"]
    try:
        seen = shared.setdefault((form.get("n"), tuple(form["b"])), cert)
    except TypeError:  # an unhashable n or b component
        return cert
    return seen if seen == cert else cert


def _json_text(value, newline: str, memo: dict) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, when
    ``newline`` is a bare newline and ``memo`` is empty.

    Each list or dict is one join over its items' texts, which are indented
    by ``newline`` plus two spaces; ints, strings and bools take the C-level
    fast paths, and any other scalar goes through ``json.dumps``, which
    raises ``TypeError`` for a value json cannot encode.  Containers are
    plain lists and dicts with string keys, as ``json.loads`` returns them
    and every ``to_json`` builds them.

    ``memo`` maps the ``id`` of each shared dict rendered so far to its
    newline and text: the dicts a store tree repeats, certificates (a "form"
    key) and rational functions (a "num_terms" key).  A repeat at another
    depth swaps the newline, as every raw newline in a text is indentation
    (``encode_basestring_ascii`` escapes the ones in strings).  Ids are
    unique only while their objects live, so a memo serves one value, which
    holds every dict alive.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _encode_str(value)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(item, inner, memo) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        shared = "form" in value or "num_terms" in value
        if shared:
            seen = memo.get(id(value))
            if seen is not None:
                old, text = seen
                return text if old == newline else text.replace(old, newline)
        inner = newline + "  "
        items = [
            _encode_str(k) + ": " + _json_text(v, inner, memo) for k, v in sorted(value.items())
        ]
        text = "{" + inner + ("," + inner).join(items) + newline + "}"
        if shared:
            memo[id(value)] = (newline, text)
        return text
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(value)


def _json_pieces(data: dict) -> Iterator[str]:
    """``_json_text(data, "\\n", {})`` plus a newline for the store object
    ``data`` that ``ResultStore.to_json`` builds, in pieces: the object's
    fixed opening, each entry, rendered at the entry list's depth through
    one memo, and the closing, so the entries are written one by one, not
    joined first."""
    memo: dict = {}
    entries = data["entries"]
    inner = "\n    "
    yield '{\n  "entries": ['
    for i, entry in enumerate(entries):
        yield ("," if i else "") + inner + _json_text(entry, inner, memo)
    version = _json_text(data["version"], "\n  ", memo)
    yield ("\n  ]" if entries else "]") + ',\n  "version": ' + version + "\n}\n"


def _replace_file(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to a temporary file beside ``path``, make it durable,
    then rename it onto ``path`` and sync the directory, so that the rename
    survives a crash too.  Callers hold the store lock, so the temporary name
    is theirs alone; on a failure before the rename, including one raised
    while ``pieces`` are produced, it is removed again."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def store_path(explicit: Optional[str] = None) -> str:
    """The CLI's store location: flag, then DYSON_STORE, then ./dyson-store.json."""
    if explicit:
        return explicit
    return os.environ.get(STORE_ENV, DEFAULT_STORE)


class _locked:
    """Exclusive lock around store writes via an O_EXCL lock file."""

    def __init__(self, path: str, timeout: float = 5.0):
        self.lock_path = path + ".lock"
        self.timeout = timeout
        self.fd: Optional[int] = None

    def __enter__(self):
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self.fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                return self
            except FileExistsError:
                if time.monotonic() > deadline:
                    raise StoreIOError(
                        f"store is locked (stale {self.lock_path}?)"
                    ) from None
                time.sleep(0.05)
            except OSError as exc:
                raise StoreIOError(f"cannot create lock {self.lock_path}: {exc}") from exc

    def __exit__(self, *exc_info):
        if self.fd is not None:
            os.close(self.fd)
            os.unlink(self.lock_path)
        return False
