"""A test-side observer of the timeline path that ships.

``CheckedTimeline`` runs the engine's own tick (the weight pass, hellos and
maintain only on the ticks that need them, and only the dirty nodes
maintained) and changes none of its state but the simulations' context
caches (see ``check_contexts``).  It asserts:

- on every tick the social layer runs, skipped or not: every node's
  friend-slot map holds exactly the slots whose scalar
  ``ContactWindow.link_weight`` is above the threshold, in slot order;
- wherever the engine reads the weight cache: every slot equals
  ``ContactWindow.link_weight`` at that tick;
- on every hello tick: every node left clean is a fixed point
  (``reference_maintain``, run on a copy of its view, changes nothing),
  and every view's owner neighbours are its friends.

Its views are ``CheckedView``s, whose every ``maintain`` call is compared
with ``reference_maintain`` run on a copy: the return value, the adjacency
(order included), the staged advertisements and the revision.

Standing hellos are checked against shadow views fed the per-pair way:
on every hello phase each in-range pair's receiver hears
``apply_hello(make_hello(...))`` from the sender's shadow, and the dirty
shadows are maintained as the engine maintains its views.  On every hello
tick each view's graph, revision, ``peer_centrality``, ``peer_weights``
(compared as dicts, since a value may be a live handle), staged and
restaged advertisements, and the dirty set must equal the shadows'.

After every tick, the ``RelayContext`` each simulation would route a node on
(its cached one, rebuilt if the view's stamp moved) must equal one built
afresh.

Tests opt in with the ``checked`` fixture (see ``conftest.py``) or the
``checking()`` context manager, which make every ``Timeline`` the engine
builds a ``CheckedTimeline``.
"""

import contextlib
from dataclasses import replace

import dtnsim.engine
from dtnsim.engine import Timeline, _SlotWeights
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


class ShadowView(SocialNetworkView):
    """A view fed per-pair hellos.  Its methods are bound as this module
    imported them, so a test that counts calls on ``SocialNetworkView``
    counts the engine's views alone."""

    apply_hello = SocialNetworkView.apply_hello
    make_hello = SocialNetworkView.make_hello
    my_centrality = SocialNetworkView.my_centrality
    maintain = SocialNetworkView.maintain
    _pass = SocialNetworkView._pass


class CheckedTimeline(Timeline):
    """A timeline that checks its weights and views on every tick."""

    def __init__(self, config, trace=None):
        super().__init__(config, trace)
        for node in self.nodes:
            node.view = CheckedView(node.id)
        #: views fed by a hello from every in-range pair, and their dirty set
        self._shadows = [ShadowView(node.id) for node in self.nodes]
        self._shadow_dirty = set()
        #: the time of the tick being advanced, and the weight list last
        #: checked against the scalar weights at that time
        self._now = None
        self._checked = (None, None)

    def _scalar_weights(self, now):
        return [win.link_weight(now) for win in self._slot_win]

    def _weights(self):
        weight = super()._weights()
        now, checked = self._checked
        if now != self._now or checked is not weight:
            for slot, scalar in enumerate(self._scalar_weights(self._now)):
                assert weight[slot] == scalar, (
                    f"weight read at t={self._now} from slot {slot} "
                    f"{tuple(self._row[slot])}: {weight[slot]!r} != {scalar!r}"
                )
            self._checked = (self._now, weight)
        return weight

    def _tick(self, idx):
        social, sims = self._social, list(self._active)
        self._now = now = idx * self.cfg.tick
        super()._tick(idx)
        if social:
            self._check(now, hello=idx % self._hello_every == 0)
        for sim in sims:
            check_contexts(sim)

    def _hello_and_maintain(self, pairs, now):
        # the per-pair hello exchange, on the shadows: the marks made since
        # the last phase (new peers, threshold flips) are the engine's
        shadows, dirty = self._shadows, self._dirty.copy()
        if pairs:
            weight = self._weights()
            payloads = {}
            for u, v in pairs:
                for x, y in ((u, v), (v, u)):
                    if x not in payloads:
                        friends = self.nodes[x].friends
                        payloads[x] = shadows[x].make_hello(
                            {j: weight[s] for j, s in friends.items()}
                        )
                    if shadows[y].apply_hello(payloads[x]):
                        dirty.add(y)
        for i in sorted(dirty):
            node = self.nodes[i]
            if not shadows[i].maintain(
                now,
                threshold=self.cfg.threshold,
                weights=_SlotWeights(self, node.slots),
                basis=(len(node.slots), node.friends),
            ):
                dirty.discard(i)
        self._shadow_dirty = dirty
        super()._hello_and_maintain(pairs, now)

    def _check_standing(self, now):
        """Every view holds what per-pair hellos would have left there."""
        assert self._dirty == self._shadow_dirty, (
            f"dirty nodes at t={now}: standing hellos {sorted(self._dirty)}, "
            f"per-pair hellos {sorted(self._shadow_dirty)}"
        )
        for node, shadow in zip(self.nodes, self._shadows):
            view, where = node.view, f"view of node {node.id} at t={now}"
            assert list(view.graph._adj.items()) == list(shadow.graph._adj.items()), where
            assert view.revision == shadow.revision, where
            assert view.peer_centrality == shadow.peer_centrality, where
            weights = {x: dict(w) for x, w in view.peer_weights.items()}
            assert weights == shadow.peer_weights, f"peer weights of the {where}"
            assert view._advertised == shadow._advertised, f"staged adverts of the {where}"
            assert view._restaged == shadow._restaged, f"restaged senders of the {where}"

    def _check(self, now, hello):
        threshold, weight = self.cfg.threshold, self._scalar_weights(now)
        for i, node in enumerate(self.nodes):
            friends = [(j, s) for j, s in node.slots.items() if weight[s] > threshold]
            assert list(node.friends.items()) == friends, (
                f"friend-slot map of node {i} drifted at t={now}: "
                f"{list(node.friends.items())} vs {friends}"
            )
            if not hello:
                continue
            if i not in self._dirty:
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
        if hello:
            self._check_standing(now)


def weight_source(weights):
    """What a context's own weights read: a slot view's timeline and slots
    (its values are checked where the engine reads them), or the map."""
    if isinstance(weights, _SlotWeights):
        return weights._timeline, weights._slots
    return weights


def check_contexts(sim):
    """The relay context ``sim`` would route each node on, for every node it
    keeps one for, equals one built afresh.  Asking for it may rebuild a
    stale one a little early, as the node's next routing would."""
    for i, cached in enumerate(sim._contexts):
        if cached is None:
            continue
        ctx, fresh = sim._relay_context(i), sim._context(i)
        where = f"relay context of node {i} at t={sim.now}"
        assert weight_source(ctx.own_weights) == weight_source(fresh.own_weights), where
        assert replace(ctx, own_weights={}) == replace(fresh, own_weights={}), where


@contextlib.contextmanager
def checking():
    """Within the block, every timeline the engine builds is checked."""
    shipped = dtnsim.engine.Timeline
    dtnsim.engine.Timeline = CheckedTimeline
    try:
        yield
    finally:
        dtnsim.engine.Timeline = shipped
