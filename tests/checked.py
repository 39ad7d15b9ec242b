"""A test-side observer of the hello/maintain path that ships.

``CheckedTimeline`` runs the engine's own ``_hello_and_maintain`` (only the
dirty nodes are maintained, and a pass that cannot change a view is
skipped) and changes none of its state; after it, at every hello tick, it
asserts:

- every weight slot equals ``ContactWindow.link_weight`` of its window;
- every node's friend-slot map holds exactly its slots above the threshold,
  in slot order;
- every node left clean is a fixed point: ``reference_maintain``, run on a
  copy of its view, changes nothing;
- every view's owner neighbours are its friends.

Its views are ``CheckedView``s, whose every ``maintain`` call is compared
with ``reference_maintain`` run on a copy: the return value, the adjacency
(order included), the staged advertisements and the revision.

Tests opt in with the ``checked`` fixture (see ``conftest.py``) or the
``checking()`` context manager, which make every ``Timeline`` the engine
builds a ``CheckedTimeline``.
"""

import contextlib

import dtnsim.engine
from dtnsim.engine import Timeline
from dtnsim.social import SocialNetworkView

from test_maintain_oracle import reference_maintain


def copy_view(view):
    """A plain view holding what ``reference_maintain`` reads and writes."""
    twin = SocialNetworkView(view.owner)
    twin.graph = view.graph.copy()
    twin._advertised = dict(view._advertised)
    twin.revision = view.revision
    return twin


class CheckedView(SocialNetworkView):
    """A view whose every ``maintain`` call must match the reference pass."""

    def maintain(self, now, *, threshold, weights, basis=None):
        twin = copy_view(self)
        want = reference_maintain(twin, now, threshold=threshold, weights=dict(weights))
        got = super().maintain(now, threshold=threshold, weights=weights, basis=basis)
        where = f"maintain of node {self.owner} at t={now}"
        assert got == want, f"{where} returned {got}; a full pass returns {want}"
        assert list(self.graph._adj.items()) == list(twin.graph._adj.items()), where
        assert self._advertised == twin._advertised, where
        assert self.revision == twin.revision, where
        return got


class CheckedTimeline(Timeline):
    """A timeline that checks its weights and views at every hello tick."""

    def __init__(self, config, trace=None):
        super().__init__(config, trace)
        for node in self.nodes:
            node.view = CheckedView(node.id)

    def _hello_and_maintain(self, pairs, now):
        super()._hello_and_maintain(pairs, now)
        threshold, weight = self.cfg.threshold, self._weights()
        for i, node in enumerate(self.nodes):
            for j, slot in node.slots.items():
                scalar = self._slot_win[slot].link_weight(now)
                assert weight[slot] == scalar, (
                    f"weight cache drift at t={now} pair ({i},{j}): "
                    f"{scalar!r} != {weight[slot]!r}"
                )
            friends = [(j, s) for j, s in node.slots.items() if weight[s] > threshold]
            assert list(node.friends.items()) == friends, (
                f"friend-slot map of node {i} drifted at t={now}: "
                f"{list(node.friends.items())} vs {friends}"
            )
            if not self._dirty[i]:
                twin = copy_view(node.view)
                weights = {j: weight[s] for j, s in node.slots.items()}
                assert not reference_maintain(
                    twin, now, threshold=threshold, weights=weights
                ), f"node {i} is not dirty, but a full pass changes its view at t={now}"
            neighbours = node.view.graph.neighbors(i)
            assert neighbours == {j for j, _ in friends}, (
                f"node {i}'s view neighbours {sorted(neighbours)} are not its "
                f"friends {[j for j, _ in friends]} at t={now}"
            )


@contextlib.contextmanager
def checking():
    """Within the block, every timeline the engine builds is checked."""
    shipped = dtnsim.engine.Timeline
    dtnsim.engine.Timeline = CheckedTimeline
    try:
        yield
    finally:
        dtnsim.engine.Timeline = shipped
