"""Flash loan transaction identification (paper Sec. V-A, Table II).

A transaction is a *flash loan transaction* when it matches a provider
fingerprint:

==========  =====================================  =======================
Provider    Functions                              Events
==========  =====================================  =======================
Uniswap     ``swap`` then ``uniswapV2Call``        —
AAVE        ``flashLoan``                          ``FlashLoan``
dYdX        ``Operate``/``Withdraw``/              ``LogOperation``/
            ``callFunction``/``Deposit``           ``LogWithdraw``/
                                                   ``LogCall``/``LogDeposit``
==========  =====================================  =======================

Identification also recovers the *flash loan borrower* — the contract the
provider calls back into — which downstream pattern matching anchors on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.trace import TransactionTrace
from ..chain.types import Address

__all__ = ["FlashLoan", "FlashLoanIdentifier", "PROVIDERS"]

PROVIDERS = ("Uniswap", "AAVE", "dYdX")


@dataclass(slots=True)
class FlashLoan:
    """One identified flash loan inside a transaction.

    A value, never mutated after construction; not frozen (see
    :class:`~repro.chain.trace.TransferRecord`).
    """

    provider: str
    provider_account: Address
    borrower: Address
    token: Address
    amount: int


#: dYdX's fingerprint: every one of these events in one transaction.
_DYDX_EVENTS = ("LogOperation", "LogWithdraw", "LogCall", "LogDeposit")
#: one bit per fingerprint event: AAVE's ``FlashLoan`` and dYdX's four.
_EVENT_BITS = {event: 1 << i for i, event in enumerate(("FlashLoan", *_DYDX_EVENTS))}
_FLASH_LOAN = _EVENT_BITS["FlashLoan"]
_LOG_WITHDRAW = _EVENT_BITS["LogWithdraw"]
_DYDX_ALL = sum(_EVENT_BITS[event] for event in _DYDX_EVENTS)


class FlashLoanIdentifier:
    """Stateless matcher for the three provider fingerprints."""

    def identify(self, trace: TransactionTrace) -> list[FlashLoan]:
        """Return every flash loan taken in ``trace`` (possibly several:
        seven of the studied attacks borrow from more than one provider),
        Uniswap loans first, then AAVE, then dYdX."""
        loans: list[FlashLoan] = []
        # Uniswap: uniswapV2Call from a pair an earlier swap call went to.
        open_swaps: list = []
        flash_loan_called = False
        for call in trace.calls:
            function = call.function
            if function == "swap":
                open_swaps.append(call)
            elif function == "uniswapV2Call":
                for swap_call in reversed(open_swaps):
                    pair = swap_call.callee
                    if pair == call.caller:
                        token, amount = self._loaned_asset(trace, pair, call.callee, call.seq)
                        loans.append(FlashLoan("Uniswap", pair, call.callee, token, amount))
                        break
            elif function == "flashLoan":
                flash_loan_called = True
        # AAVE: the flashLoan function plus FlashLoan events; dYdX: the
        # Operate/Withdraw/callFunction/Deposit quadruple. One walk over
        # the logs collects both; the loans are built after it, AAVE first.
        aave: list = []
        withdraws: list = []
        seen = 0  # the bits of the fingerprint events seen
        for log in trace.logs:
            event = log.event
            if event in _EVENT_BITS:
                bit = _EVENT_BITS[event]
                seen |= bit
                if bit == _FLASH_LOAN:
                    aave.append(log)
                elif bit == _LOG_WITHDRAW:
                    withdraws.append(log)
        if flash_loan_called:
            for log in aave:
                loans.append(
                    FlashLoan(
                        provider="AAVE",
                        provider_account=log.emitter,
                        borrower=log.param("target"),
                        token=log.param("reserve"),
                        amount=log.param("amount", 0),
                    )
                )
        if (seen & _DYDX_ALL) == _DYDX_ALL:
            for log in withdraws:
                loans.append(
                    FlashLoan(
                        provider="dYdX",
                        provider_account=log.emitter,
                        borrower=log.param("account"),
                        token=log.param("market"),
                        amount=log.param("amount", 0),
                    )
                )
        return loans

    def is_flash_loan_transaction(self, trace: TransactionTrace) -> bool:
        """Whether any provider fingerprint matches ``trace``."""
        return bool(self.identify(trace))

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _loaned_asset(
        trace: TransactionTrace, pair: Address, borrower: Address, before_seq: int
    ) -> tuple[Address, int]:
        """The optimistic transfer a pair sent the borrower before calling back."""
        for transfer in reversed(trace.transfers):
            if (
                transfer.seq < before_seq
                and transfer.sender == pair
                and transfer.receiver == borrower
            ):
                return transfer.token, transfer.amount
        # Flash swap where funds were sent elsewhere: fall back to unknown.
        return Address("0x" + "0" * 40), 0
