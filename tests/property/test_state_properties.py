"""Property tests: the state journal against a model dict."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Address, StateJournal

OWNERS = [Address("0x" + f"{i:02x}" * 20) for i in range(4)]

op = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(OWNERS), st.integers(0, 5), st.integers(-100, 100)),
    st.tuples(st.just("delete"), st.sampled_from(OWNERS), st.integers(0, 5), st.none()),
    st.tuples(st.just("add"), st.sampled_from(OWNERS), st.integers(0, 5), st.integers(-10, 10)),
)

#: a program step: open or close a checkpoint (or neither), then one
#: write. Opening twice as often as closing lets programs nest deeply.
step = st.tuples(st.sampled_from(["checkpoint", "checkpoint", "commit", "rollback", None]), op)


def apply_ops(state, model, ops):
    for kind, owner, slot, value in ops:
        if kind == "set":
            state.set(owner, slot, value)
            model[(owner, slot)] = value
        elif kind == "delete":
            state.delete(owner, slot)
            model.pop((owner, slot), None)
        else:
            new = model.get((owner, slot), 0) + value
            state.add(owner, slot, value)
            model[(owner, slot)] = new


def assert_matches(state, model):
    for (owner, slot), value in model.items():
        assert state.get(owner, slot) == value
    for owner in OWNERS:
        for slot in range(6):
            if (owner, slot) not in model:
                assert not state.contains(owner, slot)


class TestJournalModel:
    @given(st.lists(op, max_size=30))
    @settings(max_examples=60)
    def test_flat_ops_match_model(self, ops):
        state, model = StateJournal(), {}
        apply_ops(state, model, ops)
        assert_matches(state, model)

    @given(st.lists(op, max_size=15), st.lists(op, max_size=15))
    @settings(max_examples=60)
    def test_rollback_discards_exactly_the_checkpointed_suffix(self, before, after):
        state, model = StateJournal(), {}
        apply_ops(state, model, before)
        state.checkpoint()
        throwaway = dict(model)
        apply_ops(state, throwaway, after)
        state.rollback()
        assert_matches(state, model)

    @given(st.lists(op, max_size=10), st.lists(op, max_size=10), st.lists(op, max_size=10))
    @settings(max_examples=60)
    def test_commit_inner_rollback_outer(self, a, b, c):
        state, model = StateJournal(), {}
        apply_ops(state, model, a)
        state.checkpoint()
        scratch = dict(model)
        apply_ops(state, scratch, b)
        state.checkpoint()
        apply_ops(state, scratch, c)
        state.commit()
        state.rollback()
        assert_matches(state, model)

    @given(st.lists(step, max_size=60))
    @settings(max_examples=150)
    def test_nested_program_matches_snapshot_stack(self, program):
        """Any nesting depth: each checkpoint snapshots the model, a commit
        drops the snapshot, a rollback restores it."""
        state, model, snapshots = StateJournal(), {}, []
        for control, write in program:
            if control == "checkpoint":
                state.checkpoint()
                snapshots.append(dict(model))
            elif control is not None and snapshots:  # close only an open one
                saved = snapshots.pop()
                if control == "commit":
                    state.commit()
                else:
                    state.rollback()
                    model = saved
            assert_matches(state, model)
            apply_ops(state, model, [write])
            assert_matches(state, model)
            assert len(state) == len(model)
        assert state.depth == len(snapshots)
