"""Gated recurrent cell shared by the main language model and the title encoder.

Gate block, with sigma the sigmoid and * the Hadamard product:

    z = sigma(Wz w + Uz h_prev)
    r = sigma(Wr w + Ur h_prev)
    c = tanh(Wc w + Uc (h_prev * r))
    h = (1 - z) * c + z * h_prev

There are no gate biases. The candidate weights are named Wc/Uc so they cannot
be confused with the output projection. The cell is written in row form
(w @ Wz.T, and so on), so one code path steps a single state or a stack of
rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ParamStore, sigmoid

GATE_NAMES = ("Wz", "Uz", "Wr", "Ur", "Wc", "Uc")


@dataclass
class GruCache:
    """Forward intermediates needed by the backward pass."""

    w: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    hr: np.ndarray
    c: np.ndarray


class GruCell:
    def __init__(
        self,
        store: ParamStore,
        prefix: str,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
    ):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.Wz = store.add(f"{prefix}.Wz", (hidden_dim, input_dim), rng=rng)
        self.Uz = store.add(f"{prefix}.Uz", (hidden_dim, hidden_dim), rng=rng)
        self.Wr = store.add(f"{prefix}.Wr", (hidden_dim, input_dim), rng=rng)
        self.Ur = store.add(f"{prefix}.Ur", (hidden_dim, hidden_dim), rng=rng)
        self.Wc = store.add(f"{prefix}.Wc", (hidden_dim, input_dim), rng=rng)
        self.Uc = store.add(f"{prefix}.Uc", (hidden_dim, hidden_dim), rng=rng)

    def step(self, w: np.ndarray, h_prev: np.ndarray) -> tuple[np.ndarray, GruCache]:
        """One step of a (d_in,) input and a (d,) state, or of k rows of each
        stacked as (k x d_in) and (k x d): every weight is one product over
        the rows. A one-row `np.dot` has the bits of numpy's matrix-vector
        product, and less call overhead than `@`."""
        if w.shape[-1:] != (self.input_dim,) or h_prev.shape != w.shape[:-1] + (self.hidden_dim,):
            raise ValueError(
                f"gru step shape mismatch: w {w.shape}, h_prev {h_prev.shape}, "
                f"expected (..., {self.input_dim}) and (..., {self.hidden_dim})"
            )
        z = sigmoid(np.dot(w, self.Wz.value.T) + np.dot(h_prev, self.Uz.value.T))
        r = sigmoid(np.dot(w, self.Wr.value.T) + np.dot(h_prev, self.Ur.value.T))
        hr = h_prev * r
        c = np.tanh(np.dot(w, self.Wc.value.T) + np.dot(hr, self.Uc.value.T))
        h = (1.0 - z) * c + z * h_prev
        return h, GruCache(w=w, h_prev=h_prev, z=z, r=r, hr=hr, c=c)

    def backward(
        self, cache: GruCache, dh: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Return (dw, dh_prev, (da_z, da_r, da_c)), the last being the gate
        pre-activation gradients, each shaped as the step's rows. The weight
        gradients are left to `add_weight_grads`, which forms them once for a
        run of steps."""
        z, r, c, h_prev = cache.z, cache.r, cache.c, cache.h_prev

        dz = dh * (h_prev - c)
        dc = dh * (1.0 - z)
        dh_prev = dh * z

        da_c = dc * (1.0 - c * c)
        dhr = np.dot(da_c, self.Uc.value)
        dh_prev += dhr * r
        dr = dhr * h_prev

        da_r = dr * r * (1.0 - r)
        da_z = dz * z * (1.0 - z)
        dh_prev += np.dot(da_r, self.Ur.value) + np.dot(da_z, self.Uz.value)

        dw = np.dot(da_c, self.Wc.value) + np.dot(da_r, self.Wr.value) + np.dot(da_z, self.Wz.value)
        return dw, dh_prev, (da_z, da_r, da_c)

    def add_weight_grads(self, caches: list[GruCache], das: list[tuple]) -> None:
        """Accumulate the six weight gradients of a run of steps, given each
        step's cache and the gate gradients its `backward` returned, with one
        product per weight over the steps' rows stacked."""
        da_z, da_r, da_c = (np.vstack(g) for g in zip(*das))
        w = np.vstack([cache.w for cache in caches])
        h_prev = np.vstack([cache.h_prev for cache in caches])
        hr = np.vstack([cache.hr for cache in caches])
        self.Wz.grad += da_z.T @ w
        self.Uz.grad += da_z.T @ h_prev
        self.Wr.grad += da_r.T @ w
        self.Ur.grad += da_r.T @ h_prev
        self.Wc.grad += da_c.T @ w
        self.Uc.grad += da_c.T @ hr
