"""Contract programming model.

Protocols (and attack contracts) are Python classes deriving from
:class:`Contract`. Externally callable entry points are marked with the
:func:`external` decorator and receive a :class:`Msg` carrying the caller
and attached Ether value — the moral equivalent of Solidity's ``msg``.

All persistent contract state must go through ``self.storage`` (a
:class:`~repro.chain.state.StorageView`) so that reverts roll it back;
plain Python attributes are treated as immutable configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from .errors import UnknownFunction
from .state import StorageView
from .types import Address

if TYPE_CHECKING:  # pragma: no cover
    from .chain import Chain

__all__ = ["Msg", "Contract", "external"]

F = TypeVar("F", bound=Callable[..., Any])


@dataclass(slots=True)
class Msg:
    """Call context handed to every external function.

    A value, never mutated after construction; not frozen (see
    :class:`~repro.chain.trace.TransferRecord`).
    """

    sender: Address
    value: int = 0


def external(func: F) -> F:
    """Mark a contract method as an externally callable entry point."""
    func.__external__ = True  # type: ignore[attr-defined]
    return func


class Contract:
    """Base class for every deployed contract.

    A message call to ``function`` runs the class's function of that
    name if any definition of it in the class hierarchy is ``@external``
    (see :meth:`entry_point`). :meth:`Chain.call` looks the function up
    in the class's entry-point table and calls it with the contract and
    a :class:`Msg`; an instance attribute never shadows an entry point.

    Attributes
    ----------
    chain:
        The chain this contract lives on; used for nested calls, event
        emission and asset movement.
    address:
        The contract's account address.
    call:
        ``call(target, function, *args, value=0, **kwargs)`` makes a
        nested message call with this contract as ``msg.sender``: it is
        :meth:`Chain.call` bound to this address once, so a nested call
        pays no wrapper frame.
    storage:
        Journaled persistent storage scoped to this contract.
    app_name:
        Optional DeFi application name. Deployments carrying an app name
        seed the Etherscan-style label database used by account tagging.
    """

    #: Default application name for instances of this contract class.
    APP_NAME: str | None = None

    #: function name -> the function a message call runs, or ``None``
    #: when the name is no entry point; one table per class, filled by
    #: :meth:`entry_point` and read first by :meth:`Chain.call`.
    _entry_points: dict[str, Callable[..., Any] | None] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._entry_points = {}

    def __init__(self, chain: "Chain", address: Address) -> None:
        self.chain = chain
        self.address = address
        self.call = partial(chain.call, address)
        self.storage = StorageView(chain.state, address)
        self.app_name: str | None = self.APP_NAME
        #: whether this contract implements trade events. Some real DeFi
        #: apps never emit Swap/Deposit-style events, which is why the
        #: explorer baseline misses their trades (paper Sec. VI-B);
        #: scenarios flip this to reproduce that.
        self.emits_trade_events: bool = True

    # -- dispatch --------------------------------------------------------

    @classmethod
    def entry_point(cls, function: str) -> Callable[..., Any]:
        """The function a message call named ``function`` runs on this class.

        A name is an entry point if *any* definition of it in the class
        hierarchy is marked ``@external`` — so interface base classes
        (e.g. flash-loan receiver callbacks) can declare the entry point
        once and subclasses can override without re-decorating. It
        resolves on the class, never on an instance attribute. The
        answer is cached in the class's table; raises
        :class:`UnknownFunction` when the name is no entry point.
        """
        table = cls._entry_points
        if function in table:
            entry = table[function]
        else:
            external = any(
                getattr(klass.__dict__.get(function), "__external__", False)
                for klass in cls.__mro__
            )
            entry = table[function] = getattr(cls, function, None) if external else None
        if entry is None:
            raise UnknownFunction(f"{cls.__name__} has no external fn {function!r}")
        return entry

    # -- convenience wrappers used by subclasses --------------------------

    def emit(self, event: str, **params: Any) -> None:
        """Emit an event log from this contract."""
        self.chain.emit_log(self.address, event, params)

    def emit_trade(self, event: str, **params: Any) -> None:
        """Emit a *trade* event, unless this deployment doesn't implement
        trade events (``emits_trade_events = False``)."""
        if self.emits_trade_events:
            self.chain.emit_log(self.address, event, params)

    def receive_ether(self, msg: Msg) -> None:
        """Hook invoked when plain Ether is sent to the contract.

        Default accepts silently (like an empty ``receive()``); WETH
        overrides this to mint on deposit.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} at {self.address.short}>"
