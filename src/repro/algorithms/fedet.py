"""Fed-ET (Cho et al., IJCAI'22): ensemble knowledge transfer.

Topology heterogeneity with a server-side model: clients train personal
models of their own architectures; the server collects their predictions on
an unlabeled public transfer set, forms a confidence-weighted consensus, and
distils it into the server model (weighted consensus distillation).  The
consensus is also sent back so clients regularise toward it during local
training (the transfer-back path).

Global accuracy is the server model's accuracy — the cleanest realisation of
the paper's "final federated model" for the topology level.
"""

from __future__ import annotations

import numpy as np

from .. import autograd as ag
from ..fl.client import train_local
from ..fl.evaluate import accuracy
from ..fl.seeding import reseed_dropout
from ..models.base import SliceableModel
from .base import ClientContext, ClientUpdate, MHFLAlgorithm, RoundOutcome
from .fedproto import topology_variant_space

__all__ = ["FedET"]


class FedET(MHFLAlgorithm):
    """Server-model ensemble distillation across heterogeneous clients."""

    name = "fedet"
    level = "topology"

    #: size of the unlabeled public transfer set.
    public_size: int = 128
    #: server distillation steps per round and learning rate.
    server_steps: int = 10
    server_lr: float = 2e-3
    #: weight of the client-side consensus regulariser (transfer back).
    transfer_weight: float = 0.3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._personal: dict[int, SliceableModel] = {}
        #: trained-but-not-yet-absorbed states (run_client fills,
        #: pack_client_state drains; per-client keys are thread-safe).
        self._trained: dict[int, dict] = {}
        # Server model: the largest family member.
        space = self.variant_space(self.base_model)
        largest_key = list(space)[-1]
        self.server_model = self.base_model.variant(**space[largest_key])
        # Public transfer set: unlabeled samples from the task distribution.
        rng = np.random.default_rng(17)
        take = min(self.public_size, self.dataset.num_train)
        idx = rng.choice(self.dataset.num_train, size=take, replace=False)
        self.x_public = self.dataset.x_train[idx]
        self._consensus: np.ndarray | None = None

    @classmethod
    def variant_space(cls, base_model: SliceableModel) -> dict[str, dict]:
        return topology_variant_space(base_model)

    # ------------------------------------------------------------------
    def _build_personal(self, ctx: ClientContext) -> SliceableModel:
        """A freshly-initialised personal model (deterministic per client)."""
        model = ctx.entry.build(self.base_model)
        return model.variant(seed=2000 + ctx.client_id)

    def personal_model(self, ctx: ClientContext) -> SliceableModel:
        """The coordinator's canonical copy of one client's deployed model
        (advanced only by :meth:`apply_client_state` — ``run_client``
        trains a detached clone, so state lands when the upload does,
        identically under every executor)."""
        model = self._personal.get(ctx.client_id)
        if model is None:
            model = self._build_personal(ctx)
            self._personal[ctx.client_id] = model
        return model

    def _client_loss(self, model: SliceableModel,
                     rng: np.random.Generator,
                     consensus: np.ndarray | None):
        mu = self.transfer_weight
        x_public = self.x_public

        def loss(m, xb, yb):
            total = ag.cross_entropy(m(xb), yb)
            if consensus is not None and mu > 0:
                pick = rng.integers(0, len(x_public), size=min(16, len(x_public)))
                total = total + mu * ag.soft_cross_entropy(
                    m(x_public[pick]), consensus[pick])
            return total

        return loss

    # ------------------------------------------------------------------
    # Work-item transport: the downlink is the current consensus plus the
    # client's persistent personal-model state; the uplink returns the
    # trained personal state (the server model and its distillation stay
    # on the coordinator — they belong to ``ingest``).
    # ------------------------------------------------------------------
    def pack_round_broadcast(self, version: int) -> dict:
        return {"consensus": (None if self._consensus is None
                              else self._consensus.copy())}

    def pack_client_broadcast(self, client_id: int, version: int) -> dict:
        ctx = self.clients[int(client_id)]
        return {"personal": self.personal_model(ctx).state_dict()}

    def pack_client_state(self, client_id: int) -> dict | None:
        return {"personal": self._trained.pop(int(client_id))}

    def apply_client_state(self, client_id: int, state: dict | None) -> None:
        if state is not None:
            ctx = self.clients[int(client_id)]
            self.personal_model(ctx).load_state_dict(state["personal"])

    def run_client(self, client_id: int, version: int, rng,
                   broadcast: dict | None = None) -> ClientUpdate:
        ctx = self.clients[int(client_id)]
        # Train a detached clone; the canonical personal model advances via
        # apply_client_state when the upload is accepted.
        model = self._build_personal(ctx)
        if broadcast is None:
            model.load_state_dict(self.personal_model(ctx).state_dict())
            consensus = self._consensus
        else:
            model.load_state_dict(broadcast["personal"])
            consensus = broadcast["consensus"]
        reseed_dropout(model, rng)
        loss = train_local(model, ctx.shard.x, ctx.shard.y,
                           self.train_config, rng,
                           loss_fn=self._client_loss(model, rng, consensus))
        self._trained[ctx.client_id] = model.state_dict()
        # Client predictions on the public transfer set; confidence
        # weighting makes more certain members count more.
        model.eval()
        with ag.no_grad():
            probs = ag.softmax(model(self.x_public)).data
        model.train()
        return ClientUpdate(
            client_id=ctx.client_id, version=version, train_loss=loss,
            round_time_s=self.client_round_time_s(ctx),
            weight=float(probs.max(axis=1).mean()), payload=probs)

    def ingest(self, updates, round_index: int, rng) -> RoundOutcome:
        updates = list(updates)  # may arrive as a single-pass generator
        if not updates:
            return RoundOutcome(mean_train_loss=0.0)
        weights = np.asarray([u.weight * u.discount for u in updates])
        weights = weights / weights.sum()
        self._consensus = np.einsum("k,knc->nc", weights,
                                    np.stack([u.payload for u in updates]))
        self._distill_server(rng)
        return RoundOutcome(
            mean_train_loss=float(np.mean([u.train_loss for u in updates])))

    def _distill_server(self, rng: np.random.Generator) -> None:
        from .. import nn
        optimizer = nn.Adam(self.server_model.parameters(), lr=self.server_lr)
        for _ in range(self.server_steps):
            pick = rng.integers(0, len(self.x_public),
                                size=min(32, len(self.x_public)))
            optimizer.zero_grad()
            loss = ag.soft_cross_entropy(self.server_model(self.x_public[pick]),
                                         self._consensus[pick])
            loss.backward()
            optimizer.step()

    # ------------------------------------------------------------------
    # Resumable server-side state: the distilled server model, the last
    # consensus, and every materialised personal model.  The public set and
    # the per-round Adam are derived (seeded / rebuilt fresh each round),
    # so they need no snapshot.
    def checkpoint_state(self) -> dict:
        return {
            "server_model": self.server_model.state_dict(),
            "consensus": (None if self._consensus is None
                          else self._consensus.copy()),
            "personal": {cid: model.state_dict()
                         for cid, model in self._personal.items()},
        }

    def restore_checkpoint_state(self, state: dict) -> None:
        self.server_model.load_state_dict(state["server_model"])
        consensus = state["consensus"]
        self._consensus = (None if consensus is None
                           else np.asarray(consensus))
        for cid, personal_state in state["personal"].items():
            ctx = self.clients[int(cid)]
            self.personal_model(ctx).load_state_dict(personal_state)

    # ------------------------------------------------------------------
    def client_payload_bytes(self, ctx: ClientContext) -> tuple[float, float]:
        logits_bytes = self.public_size * self.dataset.num_classes * 4
        # Down: consensus logits; up: client logits on the public set.
        return float(logits_bytes), float(logits_bytes)

    def evaluate_global(self) -> float:
        return accuracy(self.server_model, self.x_eval, self.y_eval)

    def per_device_accuracies(self) -> list[float]:
        accs = []
        for client_id in self.eval_client_ids():
            model = self.personal_model(self.clients[client_id])
            accs.append(accuracy(model, self.x_eval, self.y_eval))
        return accs
