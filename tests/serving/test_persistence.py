"""ChangeLog (WAL) and SnapshotStore: round-trips, torn tails, atomicity."""

from __future__ import annotations

import shutil

import pytest

from repro.model import ChangeSet, SocialGraph
from repro.model.changes import (
    AddComment,
    AddFriendship,
    AddLike,
    AddUser,
    RemoveFriendship,
    RemoveLike,
)
from repro.serving.persistence import ChangeLog, SnapshotStore
from repro.util.validation import ReproError


def build_paper_graph() -> SocialGraph:
    """Fig. 3a (same construction as tests/conftest.py, kept local)."""
    g = SocialGraph()
    for uid in (101, 102, 103, 104):
        g.add_user(uid, f"u{uid - 100}")
    g.add_post(11, 10, 101)
    g.add_post(12, 11, 102)
    g.add_comment(21, 20, 102, 11)
    g.add_comment(22, 21, 101, 21)
    g.add_comment(23, 22, 103, 12)
    g.add_friendship(102, 103)
    g.add_friendship(103, 104)
    for u, c in ((102, 21), (103, 21), (101, 22), (103, 22), (104, 22)):
        g.add_like(u, c)
    return g


def _batches():
    return [
        ChangeSet([AddUser(900), AddUser(901)]),
        ChangeSet(
            [
                AddFriendship(101, 104),
                AddLike(102, 22),
                AddComment(24, 30, 103, 21),
                AddLike(104, 24),
            ]
        ),
        ChangeSet([RemoveLike(102, 21), RemoveFriendship(103, 104)]),
    ]


class TestChangeLog:
    def test_append_replay_roundtrip(self, tmp_path):
        log = ChangeLog(tmp_path)
        for v, cs in enumerate(_batches(), start=1):
            log.append(v, cs)
        log.close()

        replayed = list(ChangeLog(tmp_path).replay())
        assert [v for v, _ in replayed] == [1, 2, 3]
        for (_, got), want in zip(replayed, _batches()):
            assert list(got) == list(want)  # removals survive the round-trip

    def test_replay_after_version(self, tmp_path):
        log = ChangeLog(tmp_path)
        for v, cs in enumerate(_batches(), start=1):
            log.append(v, cs)
        assert [v for v, _ in log.replay(after_version=2)] == [3]
        assert log.last_version() == 3

    def test_torn_tail_dropped(self, tmp_path):
        log = ChangeLog(tmp_path)
        log.append(1, ChangeSet([AddUser(1)]))
        log.close()
        # simulate a crash mid-append: BEGIN frame without COMMIT
        with open(log.path, "a", newline="") as fh:
            fh.write("BEGIN,2,5\nU,2,\n")
        replayed = list(ChangeLog(tmp_path).replay())
        assert [v for v, _ in replayed] == [1]

    def test_torn_middle_raises(self, tmp_path):
        log = ChangeLog(tmp_path)
        log.append(1, ChangeSet([AddUser(1)]))
        log.close()
        with open(log.path, "a", newline="") as fh:
            fh.write("BEGIN,2,1\nU,2,\nBEGIN,3,1\nU,3,\nCOMMIT,3\n")
        with pytest.raises(ReproError, match="no COMMIT"):
            list(ChangeLog(tmp_path).replay())

    def test_change_row_outside_frame_raises(self, tmp_path):
        log = ChangeLog(tmp_path)
        with open(log.path, "w", newline="") as fh:
            fh.write("U,1,\n")
        with pytest.raises(ReproError, match="outside"):
            list(log.replay())

    def test_missing_log_replays_empty(self, tmp_path):
        assert list(ChangeLog(tmp_path / "nowhere").replay()) == []

    def test_repair_truncates_torn_tail_only(self, tmp_path):
        log = ChangeLog(tmp_path)
        log.append(1, ChangeSet([AddUser(1)]))
        log.close()
        with open(log.path, "a", newline="") as fh:
            fh.write("BEGIN,2,5\nU,2,\n")
        assert log.repair() is True
        assert log.repair() is False  # idempotent: nothing left to cut
        # the log is clean again: appending after repair keeps it replayable
        log.append(2, ChangeSet([AddUser(3)]))
        log.close()
        assert [v for v, _ in ChangeLog(tmp_path).replay()] == [1, 2]

    def test_repair_leaves_interior_corruption_for_replay(self, tmp_path):
        log = ChangeLog(tmp_path)
        log.append(1, ChangeSet([AddUser(1)]))
        log.close()
        with open(log.path, "a", newline="") as fh:
            fh.write("BEGIN,2,1\nU,2,\nBEGIN,3,1\nU,3,\nCOMMIT,3\n")
        assert log.repair() is False  # tail ends at a COMMIT: nothing cut
        with pytest.raises(ReproError, match="no COMMIT"):
            list(log.replay())


class TestTornTailSweep:
    """Byte-level tears of the last frame: every cut point of the final
    append must read as "that frame never committed", both to a reader
    (replay) and to a recovering writer (repair, then append)."""

    @staticmethod
    def _two_frame_log(tmp_path):
        log = ChangeLog(tmp_path / "src")
        log.append(1, ChangeSet([AddUser(1, "a")]))
        first = log.path.stat().st_size
        log.append(2, ChangeSet([AddUser(2, "b"), AddFriendship(1, 2)]))
        log.close()
        return log.path.read_bytes(), first

    @staticmethod
    def _cut_log(tmp_path, data: bytes, cut: int) -> ChangeLog:
        d = tmp_path / f"cut{cut}"
        d.mkdir()
        (d / ChangeLog.FILENAME).write_bytes(data[:cut])
        return ChangeLog(d)

    def test_every_cut_replays_the_committed_prefix(self, tmp_path):
        data, first = self._two_frame_log(tmp_path)
        for cut in range(first, len(data) + 1):
            log = self._cut_log(tmp_path, data, cut)
            want = [1, 2] if cut == len(data) else [1]
            assert [v for v, _ in log.replay()] == want, cut

    def test_every_cut_repairs_and_appends_cleanly(self, tmp_path):
        data, first = self._two_frame_log(tmp_path)
        for cut in range(first, len(data) + 1):
            log = self._cut_log(tmp_path, data, cut)
            prefix = [1, 2] if cut == len(data) else [1]
            log.repair()
            nxt = prefix[-1] + 1
            log.append(nxt, ChangeSet([AddUser(100 + nxt, "n")]))
            log.close()
            got = list(ChangeLog(log.path.parent).replay())
            assert [v for v, _ in got] == prefix + [nxt], cut
            assert list(got[-1][1]) == [AddUser(100 + nxt, "n")], cut


class TestSnapshotStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        g = build_paper_graph()
        store.save(g, 7)
        assert store.versions() == [7]
        assert store.latest() == 7
        loaded = store.load(7)
        assert loaded.stats() == g.stats()

    def test_latest_of_many(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for v in (3, 12, 5):
            store.save(build_paper_graph(), v)
        assert store.versions() == [3, 5, 12]
        assert store.latest() == 12

    def test_prune_keeps_newest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for v in (1, 2, 3, 4):
            store.save(build_paper_graph(), v)
        dropped = store.prune(keep=2)
        assert dropped == [1, 2]
        assert store.versions() == [3, 4]

    def test_duplicate_version_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(build_paper_graph(), 1)
        with pytest.raises(ReproError, match="already exists"):
            store.save(build_paper_graph(), 1)

    def test_crashed_tmp_dir_ignored_and_reused(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save(build_paper_graph(), 2)
        # fake a crashed later attempt: a half-written .tmp directory
        shutil.copytree(path, store._dirname(9).with_suffix(".tmp"))
        assert store.versions() == [2]  # tmp is not a snapshot
        store.save(build_paper_graph(), 9)  # and does not block a retry
        assert store.versions() == [2, 9]

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no snapshot"):
            SnapshotStore(tmp_path).load(42)
