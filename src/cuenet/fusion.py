"""Gated fusion of the global clip vector with the local class-token summary.

The local pathway is summarized by averaging the class token of every frame.
A learnable per-channel gate, squashed through a sigmoid, convexly blends
that summary with the global block's output: gate 0 (pre-sigmoid minus
infinity) keeps only the global vector, gate 1 keeps only the local summary,
and a zero pre-sigmoid gate mixes both equally.  A single linear map turns
the blended vector into class logits; index 0 is the non-violent class,
index 1 the violent class.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, VerificationError
from .tensor import (check_tensor, matmul, mean_rows, mul, sigmoid,
                     softmax_rows)

CLASS_LABELS = ("NonViolent", "Violent")


@dataclass
class FusionParams:
    beta: np.ndarray    # (1, d) pre-sigmoid gate
    proj: np.ndarray    # (d, num_classes)
    bias: np.ndarray    # (num_classes,)


def extract_class_token(x):
    """Average the per-frame class tokens of a (frames, tokens, d) array
    into one (1, d) summary."""
    return mean_rows(np.ascontiguousarray(x[:, 0, :]))


def fuse(global_vec, local_vec, beta):
    """Convex per-channel blend of the two (1, d) pathway vectors."""
    check_tensor(global_vec, rank=2, name="global vector")
    check_tensor(local_vec, rank=2, name="local summary")
    check_tensor(beta, rank=2, name="fusion gate")
    if not (global_vec.shape == local_vec.shape == beta.shape):
        raise ShapeError(f"fusion operands disagree: {global_vec.shape}, "
                         f"{local_vec.shape}, {beta.shape}")
    gate = sigmoid(beta)
    return mul(global_vec, 1.0 - gate) + mul(local_vec, gate)


def fuse_grad(global_vec, local_vec, beta, upstream):
    """Gradients of :func:`fuse` for both pathways and the gate."""
    gate = sigmoid(beta)
    g_global = upstream * (1.0 - gate)
    g_local = upstream * gate
    g_beta = upstream * (local_vec - global_vec) * gate * (1.0 - gate)
    return g_global, g_local, g_beta


def classify(z, p):
    """Map a fused (1, d) vector to per-class logits of shape (classes,)."""
    check_tensor(z, rank=2, name="fused vector")
    logits = matmul(z, p.proj) + p.bias
    return logits.reshape(-1)


def classify_grad(z, p, upstream):
    """Gradients of :func:`classify`: input, projection, bias."""
    up = upstream.reshape(1, -1)
    g_z = up @ p.proj.T
    g_proj = z.T @ up
    g_bias = up.reshape(-1).copy()
    return g_z, g_proj, g_bias


def _finite(logits):
    """``logits``, once no entry is NaN or infinite."""
    if not np.isfinite(logits).all():
        raise VerificationError(f"non-finite logits {logits.tolist()}")
    return logits


def probabilities(logits):
    """Softmax of a logit vector, overflow-safe, refusing a non-finite one;
    the logits are not written."""
    return softmax_rows(_finite(logits).reshape(1, -1).copy()).reshape(-1)


def predicted_label(logits):
    """Class label with the largest of ``len(CLASS_LABELS)`` finite logits;
    ties go to the lower index."""
    if logits.shape != (len(CLASS_LABELS),):
        raise ShapeError(f"expected {len(CLASS_LABELS)} logits, got shape "
                         f"{logits.shape}")
    return CLASS_LABELS[int(np.argmax(_finite(logits)))]
