"""Every-offset journal corruption: clean prefix replay or CorpusCorrupt.

The storage-corruption sweeps that already cover ``.rpdb`` payloads
(``tests/props/test_salvage_props.py``) extended to the corpus journal:
for every byte offset of a real journal, truncating there or flipping a
bit there must yield either

* a clean :func:`open_corpus` whose catalog is a *prefix-consistent*
  subset of what was committed — every surviving entry verifies
  bit-identically, and no entry exists that was never committed
  (no phantoms) — or
* a structured :class:`CorpusCorrupt` / :class:`CorpusError`,

and **never** an unhandled exception.  A strided subset runs unmarked;
the exhaustive sweep is marked ``chaos``.  Nothing deselects that
marker, so both run in every tier-1 run; ``-m chaos`` selects the
sweep alone.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.corpus import CorpusCatalog, open_corpus
from repro.errors import CorpusError, ReproError
from repro.testing import bit_flip, truncate


@pytest.fixture(scope="module")
def seeded(tmp_path_factory, profile_bytes, profile_bytes_alt):
    """A corpus with real history: ingests, a compaction, a delete."""
    root = str(tmp_path_factory.mktemp("sweep") / "c")
    with CorpusCatalog(root, create=True) as corpus:
        corpus.ingest_bytes("t", profile_bytes, name="a", group="g")
        corpus.ingest_bytes("t", profile_bytes_alt, name="b", group="g")
        solo = corpus.ingest_bytes("t", profile_bytes, name="solo",
                                   meta={"k": "v"})
        corpus.compact_group("t", "g")
        doomed = corpus.ingest_bytes("t", profile_bytes, name="doomed")
        corpus.delete("t", doomed.pid)
    journal = open(os.path.join(root, "journal.rjl"), "rb").read()
    # "no phantoms" means: never an entry that no journal prefix
    # committed — i.e. anything outside the set of pids ever committed
    from repro.corpus.journal import scan_records

    committed = {
        (rec["tenant"], rec["pid"])
        for _end, rec in scan_records(journal)
        if rec.get("op") in ("commit-profile", "commit-compact")
    }
    return root, journal, committed, solo.pid


def _clone(seeded_root: str, dst: str, journal: bytes) -> str:
    shutil.copytree(seeded_root, dst)
    with open(os.path.join(dst, "journal.rjl"), "wb") as fh:
        fh.write(journal)
    return dst


def _check_one(root: str, committed: dict) -> None:
    """Open the mutated corpus; only clean state or CorpusError allowed."""
    try:
        with open_corpus(root) as corpus:
            for tenant in corpus.tenants():
                for entry in corpus.list(tenant):
                    key = (entry.tenant, entry.pid)
                    assert key in committed, (
                        f"phantom entry {key} from corrupted journal"
                    )
                    # payload checks may legitimately fail as corrupt —
                    # a lost compaction commit resurrects source entries
                    # whose files were already merged away — but they
                    # must fail *structurally*
                    try:
                        corpus.verify(tenant, entry.pid)
                    except CorpusError:
                        pass
    except CorpusError:
        return  # structured refusal is an accepted outcome
    except ReproError as exc:  # pragma: no cover - would be a real bug
        raise AssertionError(
            f"journal corruption leaked a non-corpus error: {exc!r}"
        )


def _sweep_truncate(seeded, tmp_path, offsets) -> None:
    root, journal, committed, _solo = seeded
    for i, offset in enumerate(offsets):
        dst = str(tmp_path / f"t{i}")
        _clone(root, dst, truncate(journal, offset))
        _check_one(dst, committed)
        shutil.rmtree(dst)


def _sweep_flip(seeded, tmp_path, offsets) -> None:
    root, journal, committed, _solo = seeded
    for i, offset in enumerate(offsets):
        dst = str(tmp_path / f"f{i}")
        _clone(root, dst, bit_flip(journal, offset, bit=offset % 8))
        _check_one(dst, committed)
        shutil.rmtree(dst)


def test_truncate_subset(seeded, tmp_path):
    """Tier-1 insurance: strided truncation offsets (every 17th byte)."""
    journal = seeded[1]
    _sweep_truncate(seeded, tmp_path, range(0, len(journal), 17))


def test_bitflip_subset(seeded, tmp_path):
    """Tier-1 insurance: strided bit flips (every 17th byte)."""
    journal = seeded[1]
    _sweep_flip(seeded, tmp_path, range(0, len(journal), 17))


@pytest.mark.chaos
def test_truncate_every_offset(seeded, tmp_path):
    journal = seeded[1]
    _sweep_truncate(seeded, tmp_path, range(len(journal) + 1))


@pytest.mark.chaos
def test_bitflip_every_offset(seeded, tmp_path):
    journal = seeded[1]
    _sweep_flip(seeded, tmp_path, range(len(journal)))


def _offset_before(journal: bytes, op: str, pid: str) -> int:
    from repro.corpus.journal import scan_records

    prev_end = 0
    for end, record in scan_records(journal):
        if record.get("op") == op and record.get("pid") == pid:
            return prev_end
        prev_end = end
    raise AssertionError(f"no {op} record for {pid}")


def test_lost_commit_resumes_from_intent(seeded, tmp_path):
    """Truncating between a profile's intent and its commit leaves an
    intact renamed payload + a pending intent: recovery keeps the
    rename's promise and re-commits it bit-identically."""
    root, journal, committed, solo_pid = seeded
    cut = _offset_before(journal, "commit-profile", solo_pid)
    dst = _clone(root, str(tmp_path / "resumed"),
                 truncate(journal, cut))
    with open_corpus(dst) as corpus:
        entry = corpus.get("t", solo_pid)
        corpus.verify("t", solo_pid)
        assert entry.meta == {"k": "v"}, "intent metadata survives"


def test_lost_intent_never_phantoms(seeded, tmp_path):
    """Truncating before the profile's *intent* loses it entirely —
    entry gone, payload reaped as an orphan — rather than leaving a
    half-visible profile."""
    root, journal, committed, solo_pid = seeded
    cut = _offset_before(journal, "intent-ingest", solo_pid)
    dst = _clone(root, str(tmp_path / "lost"), truncate(journal, cut))
    with open_corpus(dst) as corpus:
        pids = {e.pid for e in corpus.list("t")}
        assert solo_pid not in pids
        assert not os.path.exists(
            os.path.join(dst, "tenants", "t", "profiles",
                         f"{solo_pid}.rpdb")
        ), "orphaned payload must be reaped with its lost entry"


def test_journal_replaced_by_garbage(seeded, tmp_path):
    root, journal, committed, _solo = seeded
    dst = _clone(root, str(tmp_path / "junk"), b"\x00" * len(journal))
    with open_corpus(dst) as corpus:
        assert corpus.tenants() == []  # empty catalog, no crash
