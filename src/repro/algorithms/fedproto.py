"""FedProto (Tan et al., AAAI'22): federated prototype learning.

Topology heterogeneity: every client keeps a *personal* model of its own
architecture (family member assigned by the constraint case); only class
prototypes — mean embeddings per class in a shared projection space — are
exchanged.  The local objective is cross-entropy plus an L2 pull of each
sample's embedding toward the global prototype of its class.

Because no global model exists, the paper's "global accuracy" is realised as
the mean accuracy of the evaluation clients' personal models on the global
test set (stability then reads off the same per-device accuracies).
"""

from __future__ import annotations

import numpy as np

from .. import autograd as ag
from .. import nn
from ..models.base import SliceableModel
from ..models.zoo import MODEL_FAMILIES
from .base import (ClientContext, ClientUpdate, MHFLAlgorithm, RoundOutcome,
                   WIDTH_LEVELS)
from ..fl.client import train_local
from ..fl.evaluate import accuracy
from ..fl.seeding import reseed_dropout

__all__ = ["FedProto", "ProtoModel", "topology_variant_space"]


def topology_variant_space(base_model: SliceableModel) -> dict[str, dict]:
    """Family members as capacity levels; width fallback outside families.

    The customized Transformer has no published family, so its "topologies"
    are width-scaled customisations — matching the paper's note that some
    methods/configurations do not apply to every task.
    """
    arch = base_model._build_kwargs.get("arch")
    for members in MODEL_FAMILIES.values():
        if arch in members:
            return {name: {"arch": name} for name in members}
    return {f"x{m:.2f}": {"width_mult": m} for m in WIDTH_LEVELS}


class ProtoModel(nn.Module):
    """Personal model: backbone + projection into the shared prototype space."""

    def __init__(self, backbone: SliceableModel, proto_dim: int,
                 num_classes: int, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.backbone = backbone
        self.proj = nn.Linear(backbone.feature_dim, proto_dim, rng,
                              scale_in=False, scale_out=False)
        self.head = nn.Linear(proto_dim, num_classes, rng,
                              scale_in=False, scale_out=False)
        self.pool_kind = backbone.pool_kind

    def embed(self, x) -> ag.Tensor:
        return self.proj(self.backbone.features(x))

    def forward(self, x) -> ag.Tensor:
        return self.head(ag.relu(self.embed(x)))

    def trainable_parameters(self):
        return [p for p in self.parameters() if p.requires_grad]


class FedProto(MHFLAlgorithm):
    """Prototype aggregation across heterogeneous architectures."""

    name = "fedproto"
    level = "topology"
    supports_nlp = True

    #: prototype-space dimension and regulariser weight (lambda).
    proto_dim: int = 32
    proto_weight: float = 1.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._personal: dict[int, ProtoModel] = {}
        #: trained-but-not-yet-absorbed states, keyed by client id (filled
        #: by run_client, drained by pack_client_state; per-client keys, so
        #: concurrent worker threads never collide).
        self._trained: dict[int, dict] = {}
        self.global_protos = np.zeros(
            (self.dataset.num_classes, self.proto_dim), dtype=np.float32)
        self._proto_valid = np.zeros(self.dataset.num_classes, dtype=bool)

    @classmethod
    def variant_space(cls, base_model: SliceableModel) -> dict[str, dict]:
        return topology_variant_space(base_model)

    # ------------------------------------------------------------------
    def _build_personal(self, ctx: ClientContext) -> ProtoModel:
        """A freshly-initialised personal model (deterministic per client)."""
        backbone = ctx.entry.build(self.base_model)
        return ProtoModel(backbone, self.proto_dim,
                          self.dataset.num_classes,
                          seed=1000 + ctx.client_id)

    def personal_model(self, ctx: ClientContext) -> ProtoModel:
        """The coordinator's canonical copy of one client's deployed model.

        Only :meth:`apply_client_state` advances it — ``run_client`` trains
        a detached clone, so a client's deployed model updates exactly when
        its upload is accepted, identically under every executor (an
        in-flight client evaluated mid-round still shows its old model).
        """
        model = self._personal.get(ctx.client_id)
        if model is None:
            model = self._build_personal(ctx)
            self._personal[ctx.client_id] = model
        return model

    def _proto_loss(self, model: ProtoModel,
                    protos: np.ndarray | None = None,
                    valid: np.ndarray | None = None):
        weight = self.proto_weight
        protos = self.global_protos if protos is None else protos
        valid = self._proto_valid if valid is None else valid

        def loss(m, xb, yb):
            emb = model.embed(xb)
            total = ag.cross_entropy(model.head(ag.relu(emb)), yb)
            mask = valid[yb]
            if weight > 0 and mask.any():
                targets = protos[yb]
                # Pull embeddings of valid classes toward their prototypes.
                diff = emb - ag.Tensor(targets)
                per_sample = (diff * diff).mean(axis=1)
                total = total + weight * (per_sample * ag.Tensor(
                    mask.astype(np.float32))).mean()
            return total

        return loss

    # ------------------------------------------------------------------
    # Work-item transport: FedProto's downlink is the global prototypes
    # plus the client's own personal-model state (personal models persist
    # across rounds on the coordinator; a pool worker's replica is stale
    # until this broadcast refreshes it).  The uplink hands the trained
    # personal state back.
    # ------------------------------------------------------------------
    def pack_round_broadcast(self, version: int) -> dict:
        return {"global_protos": self.global_protos.copy(),
                "proto_valid": self._proto_valid.copy()}

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
        # apply_client_state when the upload is accepted (see
        # personal_model's docstring for why the split matters).
        model = self._build_personal(ctx)
        if broadcast is None:
            model.load_state_dict(self.personal_model(ctx).state_dict())
            protos, valid = None, None
        else:
            model.load_state_dict(broadcast["personal"])
            protos = broadcast["global_protos"]
            valid = broadcast["proto_valid"]
        reseed_dropout(model, rng)
        loss = train_local(model, ctx.shard.x, ctx.shard.y,
                           self.train_config, rng,
                           loss_fn=self._proto_loss(model, protos, valid))
        self._trained[ctx.client_id] = model.state_dict()
        # Local prototypes: per-class embedding sums + member counts.
        with ag.no_grad():
            model.eval()
            emb = model.embed(ctx.shard.x).data
            model.train()
        proto_sums = np.zeros_like(self.global_protos)
        proto_counts = np.zeros(self.dataset.num_classes)
        for cls in np.unique(ctx.shard.y):
            members = emb[ctx.shard.y == cls]
            proto_sums[cls] = members.sum(axis=0)
            proto_counts[cls] = len(members)
        return ClientUpdate(
            client_id=ctx.client_id, version=version, train_loss=loss,
            round_time_s=self.client_round_time_s(ctx), weight=1.0,
            payload=(proto_sums, proto_counts))

    def ingest(self, updates, round_index: int, rng) -> RoundOutcome:
        proto_sums = np.zeros_like(self.global_protos)
        proto_counts = np.zeros(self.dataset.num_classes)
        losses = []
        for update in updates:
            sums, counts = update.payload
            scale = update.weight * update.discount
            proto_sums += sums * scale
            proto_counts += counts * scale
            losses.append(update.train_loss)
        updated = proto_counts > 0
        self.global_protos[updated] = (
            proto_sums[updated] / proto_counts[updated, None]).astype(np.float32)
        self._proto_valid |= updated
        return RoundOutcome(
            mean_train_loss=float(np.mean(losses)) if losses else 0.0)

    # ------------------------------------------------------------------
    # FedProto has no global_state to speak of; its resumable server-side
    # state is the prototype table + which classes are valid + every
    # materialised personal model (checkpoint keys become strings in the
    # JSON codec, hence the int() on restore).
    def checkpoint_state(self) -> dict:
        return {
            "global_protos": self.global_protos.copy(),
            "proto_valid": self._proto_valid.copy(),
            "personal": {cid: model.state_dict()
                         for cid, model in self._personal.items()},
        }

    def restore_checkpoint_state(self, state: dict) -> None:
        self.global_protos = np.asarray(state["global_protos"],
                                        dtype=np.float32)
        self._proto_valid = np.asarray(state["proto_valid"], dtype=bool)
        for cid, personal_state in state["personal"].items():
            ctx = self.clients[int(cid)]
            self.personal_model(ctx).load_state_dict(personal_state)

    # ------------------------------------------------------------------
    def client_payload_bytes(self, ctx: ClientContext) -> tuple[float, float]:
        proto_bytes = self.global_protos.nbytes
        return proto_bytes, proto_bytes

    def per_device_accuracies(self) -> list[float]:
        accs = []
        for client_id in self.eval_client_ids():
            model = self.personal_model(self.clients[client_id])
            accs.append(accuracy(model, self.x_eval, self.y_eval))
        return accs

    def evaluate_global(self) -> float:
        return float(np.mean(self.per_device_accuracies()))
