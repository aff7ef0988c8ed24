"""A front is a declared stack: every layer carries a ``kind`` (one of
:data:`KINDS`) and an ``inner`` (what it wraps; ``None`` at the bottom,
which names its ``kernels``).  :func:`layers` walks the declaration when
a stack is built or recovered -- a layer that wraps what its caller
hands it walks from itself, so a stack over a paged or sparse kernel is
refused where it is built; whatever needs a layer reads the mapping,
pass-through methods are installed by :func:`forward`, and an operation
the stack lacks is refused by :func:`require`."""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.errors import DomainError

#: the layer kinds, outermost first
KINDS = ("snapshot", "durable", "tiered", "buffered", "extent", "kernel")

#: what an operation needs of its stack -> how a refusal names it, and
#: the facts (:func:`unmet`) it requires.  A stack that contradicts the
#: ``extent`` fact holds the other kind of object; any other unmet fact
#: is a capability the stack lacks.
FRONT_KINDS = {
    "any": ("", {}),
    "point": ("a point-object", {"extent": False}),
    "unbuffered point": (
        "an unbuffered point-object",
        {"extent": False, "buffered": False},
    ),
    "buffered": ("a buffered", {"buffered": True}),
    "tiered": ("a tiered (tiers=...)", {"extent": False, "tiered": True}),
    "extent": ("a TT-extent (extent=True)", {"extent": True}),
    "durable": ("a durable", {"durable": True}),
}


def layers(front) -> dict:
    """``kind -> layer`` of the stack ``front`` tops, outermost first.

    Every layer above the kernel serves a dense store: a paged or sparse
    kernel (the paper's cost models) is a stack only on its own.
    """
    stack = {}
    while front is not None:
        kind = getattr(front, "kind", None)
        if kind not in KINDS:
            raise DomainError(
                f"{type(front).__name__} declares no layer kind ({', '.join(KINDS)})"
            )
        if kind == "kernel" and stack and front.store.kind != "dense":
            raise DomainError(
                f"a {list(stack)[-1]} layer cannot sit over a {front.store.kind} "
                "kernel: the layers above the kernel serve dense stores only "
                "(paged and sparse kernels are used bare)"
            )
        stack[kind] = front
        front = front.inner
    return stack


def unmet(stack, needs: str) -> list[str]:
    """The facts ``needs`` requires and ``stack`` lacks (an extent cube
    keeps a ``G_d`` buffer per family, so it is buffered)."""
    facts = {kind: kind in stack for kind in KINDS}
    facts["buffered"] |= facts["extent"]
    return [f for f, want in FRONT_KINDS[needs][1].items() if facts[f] != want]


def require(stack, needs: str, name: str, noun: str = "cube") -> None:
    """Refuse ``name()`` unless ``stack`` is what ``needs`` names."""
    if unmet(stack, needs):
        raise DomainError(f"{name}() requires {FRONT_KINDS[needs][0]} {noun}")


def forward(cls, vocabulary: dict, to: str, noun: str = "cube", lock=None) -> None:
    """Install ``cls.<name>`` per ``name: needs`` of ``vocabulary``: gate
    on ``self.stack`` (:func:`require`), then call the same name on
    ``self.<to>`` -- under ``self.<lock>`` when one is named.  A class
    that publishes (a snapshot front's ``publish``) does so once after
    each call, returned or raised, under the same lock."""
    publish = getattr(cls, "publish", None)

    def install(name: str, needs: str) -> None:
        def method(self, *args, **kwargs):
            require(self.stack, needs, name, noun)
            with getattr(self, lock) if lock else nullcontext():
                try:
                    return getattr(getattr(self, to), name)(*args, **kwargs)
                finally:
                    if publish is not None:
                        publish(self)

        method.__name__ = name
        method.__doc__ = f"``self.{to}.{name}(...)``; needs {needs!r} of the stack."
        setattr(cls, name, method)

    for name, needs in vocabulary.items():
        install(name, needs)
