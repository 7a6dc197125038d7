"""Pluggable victim-selection policies behind one scoring protocol.

Every reclamation layer (FTL blocks, ZTL zones, F2FS sections, cache
regions) faces the same question: *which container is cheapest to
reclaim right now?*  The classic answers — greedy (fewest valid units),
cost-benefit (free space gained weighted by age, as in F2FS and the
original LFS cleaner), age-threshold, and a random baseline — differ
only in how they score a candidate.  :class:`VictimPolicy` captures that
interface: ``score(view)`` maps a :class:`VictimView` to an orderable
value (lower = better victim) and ``select`` takes the minimum with
first-candidate tie-breaking, which reproduces the historical per-layer
``min()`` loops bit for bit.

Victim selection runs on every reclaim pick, over every candidate, so
the two scores that read fields (greedy, cold-defer) are C-level
``itemgetter`` keys and sources build their views with :func:`view_of`:
a pick costs no Python frame per candidate.
"""

from __future__ import annotations

import abc
from functools import partial
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from repro.reclaim.config import ensure_at_least, ensure_choice
from repro.sim.rng import make_rng


class VictimView(NamedTuple):
    """Policy-facing snapshot of one reclaimable container.

    ``victim_id`` is layer-local (block index, zone index, section id,
    region id); ``age`` is in layer ticks since the container was last
    written (0 when the layer does not track recency).  ``group`` is the
    lifetime group the container was allocated from (0 = hottest; layers
    without hot/cold separation leave it 0).
    """

    victim_id: int
    valid_count: int
    valid_fraction: float
    age: int = 0
    group: int = 0


# ``view_of((victim_id, valid_count, valid_fraction, age, group))`` — all
# five fields — builds a VictimView in C, without the Python-level
# ``__new__`` a NamedTuple class has.
view_of = partial(tuple.__new__, VictimView)
# ``min(views, key=VALID_FRACTION)``: the least-valid candidate.
VALID_FRACTION = itemgetter(2)


class VictimPolicy(abc.ABC):
    """Scoring interface; lower scores are better victims."""

    name: str = "base"
    # ``select`` is a function of the views alone, so the engine may skip
    # it (and the views) for a pick whose outcome is already decided.
    pure: bool = True

    @abc.abstractmethod
    def score(self, view: VictimView):
        """Orderable badness of reclaiming this candidate now."""

    def pick(self, views: Sequence[VictimView]) -> Optional[VictimView]:
        """The best-scoring candidate (first wins ties), or None."""
        if not views:
            return None
        return min(views, key=self.score)

    def select(self, views: Sequence[VictimView]) -> Optional[int]:
        """Victim id of the best-scoring candidate (first wins ties)."""
        view = self.pick(views)
        return None if view is None else view.victim_id


class GreedyPolicy(VictimPolicy):
    """Fewest valid units — maximum space reclaimed per migration byte."""

    name = "greedy"

    # score(view) == view.valid_count, as a C-level key.
    score = itemgetter(1)


class CostBenefitPolicy(VictimPolicy):
    """LFS/F2FS cost-benefit: ``(1 - u) * age / (1 + u)``, maximized.

    Old sparse containers win over young sparse ones, so hot data gets
    time to die before its container is scrubbed.  Inverted (negated)
    because the shared ``select`` minimizes.
    """

    name = "cost_benefit"

    def score(self, view: VictimView) -> float:
        valid = view.valid_fraction
        age = max(1, view.age)
        if valid >= 1.0:
            return float("inf")
        benefit = (1.0 - valid) * age / (1.0 + valid)
        return -benefit


class AgeThresholdPolicy(VictimPolicy):
    """Greedy restricted to candidates older than a threshold.

    Containers younger than ``age_threshold`` ticks are only taken when
    no old candidate exists — a cruder cousin of cost-benefit that
    avoids scrubbing still-hot containers without tracking utilization.
    """

    name = "age_threshold"

    def __init__(self, age_threshold: int = 8) -> None:
        self.age_threshold = ensure_at_least("age_threshold", age_threshold, 1)

    def score(self, view: VictimView):
        young = 0 if view.age >= self.age_threshold else 1
        return (young, view.valid_count)


class ColdDeferPolicy(VictimPolicy):
    """Lazy hot/cold-aware reclaim: harvest decayed hot zones, defer cold.

    The Z-CacheLib argument (arxiv 2410.11260): once flush-time
    classification separates lifetimes, hot-group containers invalidate
    themselves — waiting turns them into near-empty victims that are
    almost free to reclaim.  Cold-group containers stay valid, so
    copying them moves a nearly full container for no gain; they are
    better left *finished* (sealed, holding stable data) until the
    emergency floor forces the issue.  Score prefers the hottest group
    first and breaks ties greedily, so cold containers are only
    reclaimed when no hot candidate exists.  Group-blind greedy lacks
    exactly this deferral: a cold container with one invalid unit can
    out-score a hot one still mid-decay, and its survivors get recopied
    forever.
    """

    name = "cold_defer"

    # score(view) == (view.group, view.valid_count), as a C-level key.
    score = itemgetter(4, 1)


class RandomPolicy(VictimPolicy):
    """Uniform random victim — the ablation baseline every deliberate
    policy must beat.  Seeded, so runs stay reproducible."""

    name = "random"
    pure = False  # every select draws from the stream

    def __init__(self, seed: int = 0) -> None:
        self._rng = make_rng(seed, "reclaim.policy")

    def score(self, view: VictimView) -> int:
        return 0

    def pick(self, views: Sequence[VictimView]) -> Optional[VictimView]:
        if not views:
            return None
        return views[self._rng.randrange(len(views))]


POLICY_NAMES = ("greedy", "cost_benefit", "age_threshold", "random", "cold_defer")


def make_victim_policy(
    name: str, seed: int = 0, age_threshold: int = 8
) -> VictimPolicy:
    """Factory over :data:`POLICY_NAMES` (the bench/CLI knob surface)."""
    ensure_choice("policy", name, POLICY_NAMES)
    if name == "greedy":
        return GreedyPolicy()
    if name == "cost_benefit":
        return CostBenefitPolicy()
    if name == "age_threshold":
        return AgeThresholdPolicy(age_threshold)
    if name == "cold_defer":
        return ColdDeferPolicy()
    return RandomPolicy(seed)


def first_dead(views: Sequence[VictimView]) -> Optional[int]:
    """Victim id of the first fully-dead candidate, if any.

    A container with zero valid units is free to reclaim — no copies,
    no survivors — so layers that opt into dead-first selection take it
    before consulting the policy score at all.  "First" follows the
    layer's stable candidate order, keeping the choice deterministic.
    Invalidation storms are what make this matter: a namespace bump
    turns whole containers dead at once, and dead-first selection is
    how they sort as zero-valid victims instantly.
    """
    for view in views:
        if view.valid_count == 0:
            return view.victim_id
    return None


def windowed_draw(order_policy, window: int, population: int, rng) -> Optional[int]:
    """Draw a victim from the first ``window`` entries in policy order.

    This is navy's clean-region pool: instead of strictly reclaiming the
    eviction-order head, the victim is drawn (seeded) from a small
    window, leaving straggler regions behind in dying containers.  The
    window is read in place: one ``randrange`` over its size picks a
    position and only that entry is read (no list of the window is
    built).  Nothing is untracked — the caller untracks the victim it
    takes, and the other candidates keep their places.

    ``order_policy`` is any object with the cache eviction-policy shape
    (``pick_victim`` / ``at``); ``population`` is the number of tracked
    entries, which bounds the window.
    """
    if window == 1:
        return order_policy.pick_victim()
    size = min(window, population)
    if size <= 0:
        return None
    return order_policy.at(rng.randrange(size))
