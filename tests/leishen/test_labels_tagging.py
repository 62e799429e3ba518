"""Label database and creation-tree account tagging (paper Fig. 7)."""

import pytest

from repro.chain import BLACKHOLE, Chain, Contract
from repro.leishen import (
    AccountTagger,
    BLACKHOLE_TAG,
    LabelDatabase,
    TransferSimplifier,
    app_name_of_label,
)


class Dummy(Contract):
    pass


class TestLabelDatabase:
    def test_app_name_extraction(self):
        assert app_name_of_label("Uniswap: Factory Contract") == "Uniswap"
        assert app_name_of_label("AAVE") == "AAVE"
        assert app_name_of_label("bZx : Fulcrum") == "bZx"

    def test_add_remove(self, chain):
        account = chain.create_eoa()
        db = LabelDatabase()
        db.add(account, "Yearn: Vault")
        assert db.app_of(account) == "Yearn"
        assert account in db
        db.remove(account)
        assert db.app_of(account) is None

    def test_from_chain(self, chain):
        account = chain.create_eoa(label="Curve: Deployer")
        db = LabelDatabase.from_chain(chain)
        assert db.app_of(account) == "Curve"

    def test_addresses_of_app(self, chain):
        a = chain.create_eoa(label="X: One")
        b = chain.create_eoa(label="X: Two")
        db = LabelDatabase.from_chain(chain)
        assert set(db.addresses_of_app("X")) == {a, b}


class TestTaggingCases:
    def _tree(self, chain, root_label=None):
        root = chain.create_eoa(label=root_label)
        mid = chain.deploy(root, Dummy)
        leaf = chain.deploy(mid.address, Dummy)
        return root, mid, leaf

    def test_fig7a_single_tag_propagates(self, chain):
        root, mid, leaf = self._tree(chain)
        chain.labels[mid.address] = "Uniswap: Factory"
        tagger = AccountTagger(chain)
        assert tagger.tag_of(leaf.address) == "Uniswap"
        assert tagger.tag_of(root) == "Uniswap"

    def test_fig7b_no_tag_uses_root_address(self, chain):
        root, mid, leaf = self._tree(chain)
        tagger = AccountTagger(chain)
        assert tagger.tag_of(leaf.address) == str(root)
        assert tagger.tag_of(mid.address) == str(root)
        # both accounts share the root tag: attacker EOA + contract group
        assert tagger.tag_of(leaf.address) == tagger.tag_of(mid.address)

    def test_fig7c_conflicting_tags_untaggable(self, chain):
        root, mid, leaf = self._tree(chain, root_label="Yearn: Deployer")
        chain.labels[leaf.address] = "Uniswap: Pool"
        tagger = AccountTagger(chain)
        assert tagger.tag_of(mid.address) is None  # sees Yearn above, Uniswap below

    def test_siblings_do_not_conflict(self, chain):
        root = chain.create_eoa(label="A: Deployer")
        child_a = chain.deploy(root, Dummy)
        child_b = chain.deploy(root, Dummy)
        chain.labels[child_b.address] = "B: Pool"
        tagger = AccountTagger(chain)
        # child_a's tree: ancestors {root(A)} + its own descendants: no B
        assert tagger.tag_of(child_a.address) == "A"

    def test_blackhole_tag(self, chain):
        tagger = AccountTagger(chain)
        assert tagger.tag_of(BLACKHOLE) == BLACKHOLE_TAG

    def test_plain_eoa_tagged_by_own_address(self, chain):
        eoa = chain.create_eoa()
        tagger = AccountTagger(chain)
        assert tagger.tag_of(eoa) == str(eoa)

    def test_cache_invalidation_on_new_deploy(self, chain):
        root = chain.create_eoa()
        tagger = AccountTagger(chain)
        assert tagger.tag_of(root) == str(root)
        mid = chain.deploy(root, Dummy)
        chain.labels[mid.address] = "Late: Label"
        assert tagger.tag_of(root) == "Late"

    def test_removing_attacker_labels(self, chain):
        attacker = chain.create_eoa(label="Exploiter: bZx Attacker")
        tagger = AccountTagger(chain)
        assert tagger.tag_of(attacker) == "Exploiter"
        tagger.labels.remove(attacker)
        tagger.invalidate()
        assert tagger.tag_of(attacker) == str(attacker)


class TestTagTransfers:
    def test_lifts_all_fields(self, chain, registry):
        deployer = chain.create_eoa(label="Token: Deployer")
        token = registry.deploy(chain, deployer, "T")
        a = chain.create_eoa()
        b = chain.create_eoa()
        token.mint(a, 10)
        trace = chain.transact(a, token.address, "transfer", b, 10)
        tagger = AccountTagger(chain)
        lifted = TransferSimplifier().simplify(trace.transfers, tagger.tags())
        assert len(lifted) == 1
        t = lifted[0]
        assert t.sender == str(a) and t.receiver == str(b)
        assert t.amount == 10 and t.token == token.address
