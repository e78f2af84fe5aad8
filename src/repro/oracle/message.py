"""Message types exchanged between simulated PEs.

Four kinds of traffic appear in the paper's model:

* **goal messages** — a newly created goal being placed (CWN) or a queued
  goal being shipped to a neighbor (GM).  These are the interesting
  traffic: hop counts of goal messages make up the paper's Table 3.
* **response messages** — a finished (sub)computation's result returning
  to the parent task's PE, routed shortest-path.
* **load updates** — the one-word load broadcast CWN piggybacks onto
  regular traffic or sends periodically.
* **proximity updates** — the Gradient Model's broadcast-on-change
  proximity word.

All four are light ``__slots__`` records; the channel model charges
transfer time per message based on its ``size_words``.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ControlWord",
    "GoalMessage",
    "LoadUpdate",
    "Message",
    "ResponseMessage",
]


class Message:
    """Base class: anything that can occupy a channel.

    ``src``/``dst`` are PE indices for the *current hop* (channels connect
    adjacent PEs or bus members, so end-to-end routes are sequences of
    messages re-submitted hop by hop).
    """

    __slots__ = ("src", "dst", "size_words")

    kind = "message"

    def __init__(self, src: int, dst: int, size_words: int = 1) -> None:
        self.src = src
        self.dst = dst
        self.size_words = size_words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.src}->{self.dst})"


class GoalMessage(Message):
    """A goal in flight.

    ``hops`` counts the distance travelled from the *source* PE (the PE
    where the goal was created), which is what CWN's radius/horizon rules
    and Table 3's histogram are defined over.  ``goal`` is a
    :class:`repro.workload.base.Goal`.  ``target`` is used only by
    strategies that route to an explicit destination (the global
    baselines); -1 means "no fixed target".
    """

    __slots__ = ("goal", "hops", "origin", "target", "load_word")

    kind = "goal"

    def __init__(
        self,
        src: int,
        dst: int,
        goal: Any,
        hops: int = 0,
        origin: int | None = None,
        target: int = -1,
        size_words: int = 4,
    ) -> None:
        # Base fields assigned here rather than through super().__init__:
        # one goal message per goal, one response per remote result.
        self.src = src
        self.dst = dst
        self.size_words = size_words
        self.goal = goal
        self.hops = hops
        self.origin = src if origin is None else origin
        self.target = target
        #: sender's load, attached in ``load_info="piggyback"`` mode
        #: (the paper's "piggybacking the load information 'word' with
        #: regular messages"); None when not piggybacking.
        self.load_word: float | None = None


class ResponseMessage(Message):
    """A result word returning to the parent task, routed shortest-path.

    ``final_dst`` is the PE hosting the parent task; ``src``/``dst`` are
    rewritten at each hop by the router.  ``child_index`` slots the value
    into the parent's ordered response vector.
    """

    __slots__ = ("task_id", "child_index", "value", "final_dst", "load_word")

    kind = "response"

    def __init__(
        self,
        src: int,
        dst: int,
        final_dst: int,
        task_id: int,
        child_index: int,
        value: Any,
        size_words: int = 2,
    ) -> None:
        self.src = src
        self.dst = dst
        self.size_words = size_words
        self.final_dst = final_dst
        self.task_id = task_id
        self.child_index = child_index
        self.value = value
        #: sender's load for ``load_info="piggyback"`` (see GoalMessage)
        self.load_word: float | None = None


class LoadUpdate(Message):
    """CWN's one-word load broadcast (queue length of the sender)."""

    __slots__ = ("load",)

    kind = "load"

    def __init__(self, src: int, dst: int, load: float, size_words: int = 1) -> None:
        super().__init__(src, dst, size_words)
        self.load = load


class ControlWord(Message):
    """A one-word strategy datum (e.g. GM's broadcast-on-change proximity).

    ``word_kind`` routes the word to the right strategy handler; GM uses
    ``"prox"``, extensions may define their own kinds (ACWN's work
    requests use ``"workreq"``).
    """

    __slots__ = ("word_kind", "value")

    kind = "control"

    def __init__(
        self, src: int, dst: int, word_kind: str, value: float, size_words: int = 1
    ) -> None:
        super().__init__(src, dst, size_words)
        self.word_kind = word_kind
        self.value = value
