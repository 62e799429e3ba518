"""Journaled state: checkpoint/commit/rollback semantics."""

import pytest

from repro.chain import Address, StateJournal
from repro.chain.state import StorageView

A = Address("0x" + "aa" * 20)
B = Address("0x" + "bb" * 20)


class TestBasicOps:
    def test_get_default(self):
        state = StateJournal()
        assert state.get(A, "k") is None
        assert state.get(A, "k", 7) == 7

    def test_set_get(self):
        state = StateJournal()
        state.set(A, "k", 1)
        assert state.get(A, "k") == 1

    def test_keys_scoped_by_owner(self):
        state = StateJournal()
        state.set(A, "k", 1)
        assert state.get(B, "k") is None

    def test_add_accumulates(self):
        state = StateJournal()
        assert state.add(A, "n", 5) == 5
        assert state.add(A, "n", -2) == 3

    def test_delete(self):
        state = StateJournal()
        state.set(A, "k", 1)
        state.delete(A, "k")
        assert not state.contains(A, "k")


class TestCheckpoints:
    def test_rollback_restores_overwrite(self):
        state = StateJournal()
        state.set(A, "k", 1)
        state.checkpoint()
        state.set(A, "k", 2)
        state.rollback()
        assert state.get(A, "k") == 1

    def test_rollback_removes_new_key(self):
        state = StateJournal()
        state.checkpoint()
        state.set(A, "k", 1)
        state.rollback()
        assert not state.contains(A, "k")

    def test_rollback_restores_delete(self):
        state = StateJournal()
        state.set(A, "k", 1)
        state.checkpoint()
        state.delete(A, "k")
        state.rollback()
        assert state.get(A, "k") == 1

    def test_commit_folds_into_parent(self):
        state = StateJournal()
        state.set(A, "k", 1)
        state.checkpoint()  # outer
        state.checkpoint()  # inner
        state.set(A, "k", 2)
        state.commit()  # inner commit
        state.rollback()  # outer rollback must still restore 1
        assert state.get(A, "k") == 1

    def test_nested_rollback_only_inner(self):
        state = StateJournal()
        state.checkpoint()
        state.set(A, "outer", 1)
        state.checkpoint()
        state.set(A, "inner", 2)
        state.rollback()
        assert state.get(A, "outer") == 1
        assert not state.contains(A, "inner")
        state.commit()
        assert state.get(A, "outer") == 1

    def test_first_write_wins_in_journal(self):
        state = StateJournal()
        state.set(A, "k", 1)
        state.checkpoint()
        state.set(A, "k", 2)
        state.set(A, "k", 3)
        state.rollback()
        assert state.get(A, "k") == 1

    def test_rollback_without_checkpoint_raises(self):
        with pytest.raises(RuntimeError):
            StateJournal().rollback()

    def test_commit_without_checkpoint_raises(self):
        with pytest.raises(RuntimeError):
            StateJournal().commit()

    def test_depth_tracking(self):
        state = StateJournal()
        assert state.depth == 0
        state.checkpoint()
        state.checkpoint()
        assert state.depth == 2
        state.commit()
        state.rollback()
        assert state.depth == 0


class TestStorageView:
    def test_scoped_to_owner(self):
        state = StateJournal()
        view_a = StorageView(state, A)
        view_b = StorageView(state, B)
        view_a.set("k", 1)
        assert view_a.get("k") == 1
        assert view_b.get("k") is None

    def test_add_and_delete(self):
        state = StateJournal()
        view = StorageView(state, A)
        view.add("n", 4)
        assert view.get("n") == 4
        view.delete("n")
        assert not view.contains("n")
