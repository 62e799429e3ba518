"""Chain execution: calls, transactions, atomicity, traces, blocks."""

import pytest

from repro.chain import (
    Chain,
    ChainError,
    Contract,
    ETH,
    ETHER,
    Msg,
    NotAContract,
    Revert,
    UnknownFunction,
    external,
)


class Counter(Contract):
    @external
    def bump(self, msg: Msg, by: int = 1) -> int:
        return self.storage.add("count", by)

    @external
    def bump_then_fail(self, msg: Msg) -> None:
        self.storage.add("count", 1)
        self.emit("Bumped")
        raise Revert("nope")

    @external
    def bump_and_call(self, msg: Msg, other, fn) -> None:
        self.storage.add("count", 1)
        self.call(other, fn)

    @external
    def bump_catching(self, msg: Msg, other, fn="bump_then_fail") -> None:
        self.storage.add("count", 1)
        try:
            self.call(other, fn, value=msg.value)
        except Revert:
            pass  # tolerated, like Solidity try/catch
        self.emit("Caught")

    def count(self) -> int:
        return self.storage.get("count", 0)


class QuietCounter(Counter):
    def bump(self, msg: Msg, by: int = 1) -> int:  # overrides without @external
        return -by


class Sibling(Contract):
    def bump(self, msg: Msg, by: int = 1) -> int:  # never decorated
        return by


def numbering(trace) -> list[tuple[str, int, int | None]]:
    """``(record kind, seq relative to the first call, call depth)`` per record."""
    base = trace.calls[0].seq
    return [
        (type(r).__name__.removesuffix("Record").lower(), r.seq - base, getattr(r, "depth", None))
        for r in trace.ordered_events()
    ]


class TestAccounts:
    def test_create_eoa_unique(self, chain):
        a, b = chain.create_eoa(), chain.create_eoa()
        assert a != b and a in chain.eoas

    def test_labels_recorded(self, chain):
        account = chain.create_eoa(label="Uniswap: Deployer")
        assert chain.labels[account] == "Uniswap: Deployer"

    def test_is_contract(self, chain):
        eoa = chain.create_eoa()
        contract = chain.deploy(eoa, Counter)
        assert chain.is_contract(contract.address)
        assert not chain.is_contract(eoa)


class TestEther:
    def test_faucet_and_balance(self, chain):
        account = chain.create_eoa()
        chain.faucet(account, 5 * ETH)
        assert chain.balance(account) == 5 * ETH

    def test_send_records_transfer_in_trace(self, chain, funded_accounts):
        a, b, _ = funded_accounts
        counter = chain.deploy(a, Counter)
        trace = chain.transact(a, counter.address, "bump", value=2 * ETH)
        ether_moves = [t for t in trace.transfers if t.token == ETHER]
        assert len(ether_moves) == 1
        assert ether_moves[0].amount == 2 * ETH

    def test_insufficient_balance_reverts(self, chain):
        poor = chain.create_eoa()
        rich = chain.create_eoa()
        counter = chain.deploy(rich, Counter)
        with pytest.raises(Revert):
            chain.transact(poor, counter.address, "bump", value=1)


class TestDispatch:
    def test_external_function_callable(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        chain.transact(a, counter.address, "bump", 3)
        assert counter.count() == 3

    def test_internal_method_not_dispatchable(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        with pytest.raises(UnknownFunction):
            chain.transact(a, counter.address, "count")

    def test_call_to_eoa_fails(self, chain, funded_accounts):
        a, b, _ = funded_accounts
        with pytest.raises(ChainError):
            chain.transact(a, b, "bump")

    def test_override_without_decorator_stays_external(self, chain):
        a = chain.create_eoa()
        quiet = chain.deploy(a, QuietCounter)
        assert chain.call(a, quiet.address, "bump", 2) == -2

    def test_sibling_undecorated_method_stays_internal(self, chain):
        a = chain.create_eoa()
        quiet = chain.deploy(a, QuietCounter)
        sibling = chain.deploy(a, Sibling)
        chain.call(a, quiet.address, "bump")  # resolves "bump" on QuietCounter first
        with pytest.raises(UnknownFunction):
            chain.call(a, sibling.address, "bump")
        assert chain.call(a, quiet.address, "bump") == -1

    def test_unknown_function_in_caught_call_consumes_one_seq(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        other = chain.deploy(a, Counter)
        trace = chain.transact(a, counter.address, "bump_catching", other.address, "missing")
        assert numbering(trace) == [("call", 0, 1), ("log", 2, None)]


class TestAtomicity:
    def test_revert_rolls_back_state(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        chain.transact(a, counter.address, "bump")
        with pytest.raises(Revert):
            chain.transact(a, counter.address, "bump_then_fail")
        assert counter.count() == 1
        assert chain.state.depth == 0

    def test_failed_tx_trace_has_no_effects(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        trace = chain.transact(
            a, counter.address, "bump_then_fail", allow_failure=True
        )
        assert not trace.success
        assert trace.revert_reason == "nope"
        assert trace.transfers == [] and trace.logs == []

    def test_nested_revert_can_be_caught(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        other = chain.deploy(a, Counter)
        chain.transact(a, counter.address, "bump_catching", other.address)
        assert counter.count() == 1  # outer survived
        assert other.count() == 0  # inner rolled back

    def test_nested_revert_propagates_without_catch(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        other = chain.deploy(a, Counter)
        with pytest.raises(Revert):
            chain.transact(a, counter.address, "bump_and_call", other.address, "bump_then_fail")
        assert counter.count() == 0 and other.count() == 0


class TestTraces:
    def test_happened_before_ordering(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        other = chain.deploy(a, Counter)
        trace = chain.transact(a, counter.address, "bump_and_call", other.address, "bump")
        seqs = [event.seq for event in trace.ordered_events()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_caught_revert_leaves_seq_gap(self, chain, funded_accounts):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        other = chain.deploy(a, Counter)
        trace = chain.transact(a, counter.address, "bump_catching", other.address, value=5)
        # seqs 2-4 (inner call, its ether move, its Bumped log) were rolled back
        assert numbering(trace) == [("call", 0, 1), ("transfer", 1, None), ("log", 5, None)]
        assert [log.event for log in trace.logs] == ["Caught"]
        assert trace.transfers[0].receiver == counter.address
        assert chain.balance(counter.address) == 5 and chain.balance(other.address) == 0

    def test_keep_history_flag(self, funded_accounts, chain):
        a = funded_accounts[0]
        counter = chain.deploy(a, Counter)
        chain.keep_history = False
        trace = chain.transact(a, counter.address, "bump")
        assert trace.success
        assert all(trace not in block.traces for block in chain.blocks)


class TestDeployment:
    def test_creation_relationship_recorded(self, chain):
        creator = chain.create_eoa()
        contract = chain.deploy(creator, Counter)
        assert chain.created_by[contract.address] == creator

    def test_nested_deployment_inside_tx(self, chain, funded_accounts):
        a = funded_accounts[0]

        class Deployer(Contract):
            @external
            def make(self, msg: Msg):
                child = self.chain.deploy(self.address, Counter)
                return child.address

        deployer = chain.deploy(a, Deployer)
        trace = chain.transact(a, deployer.address, "make")
        assert len(trace.creations) == 1
        assert chain.created_by[trace.creations[0].created] == deployer.address

    def test_selfdestruct_removes_code(self, chain):
        a = chain.create_eoa()
        contract = chain.deploy(a, Counter)
        chain.destroy(contract.address)
        with pytest.raises(NotAContract):
            chain.transact(a, contract.address, "bump")


class TestBlocks:
    def test_mine_advances_number_and_time(self, chain):
        block0 = chain.blocks[-1]
        block = chain.mine(3)
        assert block.number == block0.number + 3
        assert block.timestamp > block0.timestamp

    def test_mine_to_timestamp(self, chain):
        target = chain.timestamp + 86_400
        block = chain.mine_to_timestamp(target)
        assert block.timestamp == target
        with pytest.raises(ValueError):
            chain.mine_to_timestamp(0)
