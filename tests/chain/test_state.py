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


class TestMove:
    def test_move_within_balance(self):
        state = StateJournal()
        state.set(A, "a", 10)
        assert state.move(A, "a", "b", 4) == 10
        assert (state.get(A, "a"), state.get(A, "b")) == (6, 4)

    def test_short_move_writes_nothing(self):
        state = StateJournal()
        state.set(A, "a", 3)
        state.checkpoint()
        assert state.move(A, "a", "b", 5) == 3
        assert state.get(A, "a") == 3 and not state.contains(A, "b")
        assert len(state) == 1

    def test_same_slot_is_a_no_op(self):
        state = StateJournal()
        state.set(A, "a", 7)
        assert state.move(A, "a", "a", 7) == 7
        assert state.get(A, "a") == 7

    def test_zero_move_from_empty_slot_writes_both(self):
        state = StateJournal()
        assert state.move(A, "a", "b", 0) == 0
        assert list(state.entries()) == [(A, "a", 0), (A, "b", 0)]

    def test_rollback_restores_both_slots(self):
        state = StateJournal()
        state.set(A, "a", 10)
        state.checkpoint()
        state.move(A, "a", "a", 3)  # undone in reverse: the source's entry last
        state.move(A, "a", "b", 4)
        state.rollback()
        assert list(state.entries()) == [(A, "a", 10)]


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

    def test_move_is_scoped_to_owner(self):
        state = StateJournal()
        view = StorageView(state, A)
        view.set("a", 5)
        assert view.move("a", "b", 2) == 5
        assert list(state.entries()) == [(A, "a", 3), (A, "b", 2)]
