"""Learned codebooks: EMA vector quantization with dead-code restart.

The learned-codebook half of the retrieval workload (MeCoQ-style, see
PAPERS.md "Contrastive Quantization with Code Memory"):

- :class:`VectorQuantizer` — one codebook updated by exponential moving
  averages of assignment counts/sums (the ``EMAVectorQuantizer`` idiom
  from the Unseg reference repo), with *dead-code restart*: a code whose
  EMA usage decays below ``restart_threshold`` is re-seeded from a
  random batch vector so the codebook never strands capacity.  All
  randomness flows through an explicit ``rng`` argument, so training is
  reproducible under :func:`repro.nn.rng.derive_rng` seeding and
  checkpoint resume is bit-exact.  It is also the coarse quantizer of
  :class:`repro.retrieval.IVFIndex` and needs at least two codes; the
  one-cell index is :meth:`repro.retrieval.IVFIndex.flat`, whose only
  centroid is the origin.
- :class:`ProductQuantizer` — ``num_subspaces`` independent codebooks
  over equal coordinate slices; ``encode`` yields compact per-subspace
  code ids, the operand of :class:`repro.retrieval.IVFIndex`'s
  asymmetric-distance (ADC) scan.
- :class:`CodeMemory` — FIFO buffer of quantized reconstructions used as
  extra contrastive negatives by :class:`repro.retrieval.VQTrainer`,
  decoupling the negative count from the batch size (the "code memory"
  of MeCoQ; buffer-registered so it checkpoints with the trainer).

The codebook is a ``Parameter`` (``requires_grad=False``): EMA rewrites
go through the version-bumping ``Parameter.data`` setter (sanctioned for
this module under lint rule RPR002, like the BYOL/MoCo EMA updates), so
a quantizer published in a :class:`repro.serving.ModelRegistry` is
covered by fingerprint staleness detection.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn.layers.container import ModuleList
from ..nn.module import Module, Parameter
from ..nn.rng import ensure_rng, derive_rng

__all__ = ["VectorQuantizer", "ProductQuantizer", "CodeMemory"]


def _smallest_code_dtype(num_codes: int) -> np.dtype:
    """Narrowest unsigned dtype that can hold code ids ``0..num_codes-1``."""
    if num_codes <= 2 ** 8:
        return np.dtype(np.uint8)
    if num_codes <= 2 ** 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def _check_fit_args(embeddings: np.ndarray, epochs: int, batch_size: int,
                    tol: float) -> None:
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if embeddings.shape[0] == 0:
        raise ValueError("cannot fit on an empty sample")


class VectorQuantizer(Module):
    """EMA-trained codebook of ``num_codes`` vectors of ``dim`` coordinates.

    ``forward``/``assign``/``decode`` are pure lookups; :meth:`update`
    performs one EMA step (and dead-code restarts) and is the only
    mutating entry point, taking an explicit ``rng`` so two runs fed the
    same batches and spawn keys produce byte-identical codebooks.
    """

    def __init__(
        self,
        num_codes: int,
        dim: int,
        *,
        decay: float = 0.99,
        eps: float = 1e-5,
        restart_threshold: float = 1e-2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_codes < 2:
            raise ValueError(f"num_codes must be >= 2, got {num_codes}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        if restart_threshold < 0.0:
            raise ValueError(
                f"restart_threshold must be >= 0, got {restart_threshold}"
            )
        rng = ensure_rng(rng)
        self.decay = float(decay)
        self.eps = float(eps)
        self.restart_threshold = float(restart_threshold)
        codebook = rng.normal(size=(num_codes, dim)) / np.sqrt(dim)
        # float32 like every Parameter in the repo; EMA statistics stay
        # float64 so accumulation error does not depend on history length.
        self.codebook = Parameter(codebook.astype(np.float32),
                                  requires_grad=False)
        self.register_buffer("ema_counts",
                             np.ones(num_codes, dtype=np.float64))
        self.register_buffer("ema_sums", codebook.astype(np.float64))

    @property
    def num_codes(self) -> int:
        return int(self.codebook.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.codebook.data.shape[1])

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(
                f"expected embeddings of shape (N, {self.dim}), got "
                f"{x.shape}"
            )
        return x

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Nearest code id per row (squared L2; ties pick the lowest id)."""
        x = self._check_input(x)
        codebook = self.codebook.data
        # ||x - c||^2 up to the query norm: argmin is unaffected.
        scores = (np.sum(codebook ** 2, axis=1)[None, :]
                  - 2.0 * (x @ codebook.T))
        return np.argmin(scores, axis=1).astype(np.int64)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Code ids back to codebook vectors."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError(f"expected 1-D code ids, got shape {codes.shape}")
        if codes.size and (codes.min() < 0 or codes.max() >= self.num_codes):
            raise ValueError(
                f"code ids must be in [0, {self.num_codes}), got range "
                f"[{codes.min()}, {codes.max()}]"
            )
        return self.codebook.data[codes]

    def quantize(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(reconstruction, codes)`` without any codebook update."""
        codes = self.assign(x)
        return self.decode(codes), codes

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Pure quantization pass: nearest-code reconstruction of ``x``."""
        return self.decode(self.assign(x))

    def update(self, x: np.ndarray, *,
               rng: np.random.Generator) -> np.ndarray:
        """One EMA step on a batch; returns the (pre-update) assignments.

        Dead codes — EMA count below ``restart_threshold`` after the
        decay step — are restarted from batch vectors drawn with ``rng``,
        so pass a derived generator (e.g. ``derive_rng(seed, step)``) to
        keep restarts reproducible across runs and resumes.
        """
        x = self._check_input(x)
        if x.shape[0] == 0:
            raise ValueError("cannot update on an empty batch")
        codes = self.assign(x)
        counts = np.bincount(codes, minlength=self.num_codes).astype(
            np.float64
        )
        sums = np.zeros((self.num_codes, self.dim), dtype=np.float64)
        np.add.at(sums, codes, x)

        ema_counts = self.decay * self.ema_counts + (1 - self.decay) * counts
        ema_sums = self.decay * self.ema_sums + (1 - self.decay) * sums
        # Laplace smoothing keeps rarely-hit codes finite without
        # distorting the total mass.
        total = ema_counts.sum()
        smoothed = ((ema_counts + self.eps)
                    / (total + self.num_codes * self.eps) * total)
        codebook = ema_sums / smoothed[:, None]

        dead = ema_counts < self.restart_threshold
        if dead.any():
            replacements = rng.integers(0, x.shape[0], size=int(dead.sum()))
            codebook[dead] = x[replacements]
            ema_sums[dead] = x[replacements]
            ema_counts[dead] = 1.0

        self.set_buffer("ema_counts", ema_counts)
        self.set_buffer("ema_sums", ema_sums)
        # Assigning .data bumps the version counter: registry fingerprints
        # of a published quantizer notice the EMA step.
        self.codebook.data = codebook.astype(np.float32)
        return codes

    def fit(self, embeddings: np.ndarray, *, epochs: int = 5,
            batch_size: int = 1024, seed: int = 0,
            tol: float = 0.0) -> "VectorQuantizer":
        """Offline k-means-style training: shuffled minibatch EMA passes.

        Deterministic by construction — the epoch shuffle derives from
        spawn key ``(seed, 1, epoch)`` and each batch's restart RNG from
        ``(seed, 2, epoch, batch)``.  ``tol > 0`` stops early once the
        mean squared codebook movement over an epoch drops to ``tol`` or
        below; :attr:`fit_epochs_` records how many epochs actually ran.
        This is the coarse-quantizer trainer the IVF layer reuses.
        """
        embeddings = self._check_input(embeddings)
        _check_fit_args(embeddings, epochs, batch_size, tol)
        n = embeddings.shape[0]
        for epoch in range(epochs):
            previous = self.codebook.data.copy()
            order = derive_rng(seed, 1, epoch).permutation(n)
            for batch_index, start in enumerate(range(0, n, batch_size)):
                batch = embeddings[order[start:start + batch_size]]
                self.update(batch, rng=derive_rng(seed, 2, epoch,
                                                  batch_index))
            self.fit_epochs_ = epoch + 1
            shift = float(np.mean((self.codebook.data - previous) ** 2))
            if shift <= tol:
                break
        return self


class ProductQuantizer(Module):
    """Independent EMA codebooks over ``num_subspaces`` coordinate slices."""

    def __init__(
        self,
        dim: int,
        num_subspaces: int,
        num_codes: int = 256,
        *,
        decay: float = 0.99,
        eps: float = 1e-5,
        restart_threshold: float = 1e-2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_subspaces < 1:
            raise ValueError(
                f"num_subspaces must be >= 1, got {num_subspaces}"
            )
        if dim % num_subspaces != 0:
            raise ValueError(
                f"dim {dim} is not divisible by num_subspaces "
                f"{num_subspaces}"
            )
        rng = ensure_rng(rng)
        self.subdim = dim // num_subspaces
        self.quantizers = ModuleList([
            VectorQuantizer(num_codes, self.subdim, decay=decay, eps=eps,
                            restart_threshold=restart_threshold, rng=rng)
            for _ in range(num_subspaces)
        ])
        self.code_dtype = _smallest_code_dtype(num_codes)

    @property
    def num_subspaces(self) -> int:
        return len(self.quantizers)

    @property
    def num_codes(self) -> int:
        return self.quantizers[0].num_codes

    @property
    def dim(self) -> int:
        return self.subdim * self.num_subspaces

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(
                f"expected embeddings of shape (N, {self.dim}), got "
                f"{x.shape}"
            )
        return x

    def _slices(self, x: np.ndarray):
        for m in range(self.num_subspaces):
            yield x[:, m * self.subdim:(m + 1) * self.subdim]

    def encode(self, x: np.ndarray,
               row_block: int = 16_384) -> np.ndarray:
        """``(N, dim)`` embeddings to ``(N, num_subspaces)`` code ids.

        Scores are computed in float32, blocked over ``row_block`` rows
        so the ``(rows, num_codes)`` score scratch stays cache-sized no
        matter how large the batch — encoding a million-item corpus is
        matmul-bound instead of allocation-bound.
        """
        x = self._check_input(x)
        if row_block < 1:
            raise ValueError(f"row_block must be >= 1, got {row_block}")
        n = x.shape[0]
        x32 = x.astype(np.float32)
        codes = np.empty((n, self.num_subspaces), dtype=self.code_dtype)
        rows = min(row_block, max(n, 1))
        scores = np.empty((rows, self.num_codes), dtype=np.float32)
        for m, q in enumerate(self.quantizers):
            codebook = q.codebook.data  # float32 (K, subdim)
            norms = np.sum(codebook ** 2, axis=1)
            part = x32[:, m * self.subdim:(m + 1) * self.subdim]
            for start in range(0, n, rows):
                block = part[start:start + rows]
                view = scores[:block.shape[0]]
                # ||x - c||^2 up to the query norm: argmin is unaffected.
                np.matmul(block, codebook.T, out=view)
                view *= -2.0
                view += norms
                codes[start:start + rows, m] = np.argmin(view, axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """``(N, num_subspaces)`` code ids back to ``(N, dim)`` vectors."""
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.num_subspaces:
            raise ValueError(
                f"expected codes of shape (N, {self.num_subspaces}), got "
                f"{codes.shape}"
            )
        return np.concatenate(
            [q.decode(codes[:, m].astype(np.int64))
             for m, q in enumerate(self.quantizers)],
            axis=1,
        )

    def quantize(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        codes = self.encode(x)
        return self.decode(codes), codes

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Pure quantization pass: per-subspace reconstruction of ``x``."""
        return self.decode(self.encode(x))

    def update(self, x: np.ndarray, *,
               rng: np.random.Generator) -> np.ndarray:
        """One EMA step on every subspace; returns the assignments."""
        x = self._check_input(x)
        codes = np.stack(
            [q.update(part, rng=rng) for q, part in zip(self.quantizers,
                                                        self._slices(x))],
            axis=1,
        )
        return codes.astype(self.code_dtype)

    def fit(self, embeddings: np.ndarray, *, epochs: int = 5,
            batch_size: int = 1024, seed: int = 0,
            tol: float = 0.0) -> "ProductQuantizer":
        """Offline codebook training: shuffled minibatch EMA passes.

        Deterministic by construction — the epoch shuffle derives from
        spawn key ``(seed, 1, epoch)`` and each batch's restart RNG from
        ``(seed, 2, epoch, batch)`` — so ``fit`` with the same data and
        seed always yields the same codebooks.

        The EMA loop is vectorized across subspaces: assignments,
        counts, and sums for all ``num_subspaces`` codebooks come from
        batched matmuls and one flattened scatter-add per minibatch, and
        the sub-quantizers' buffers/Parameters are written back *once*
        at the end (a single version bump per codebook instead of one
        per batch).  ``tol > 0`` adds an early stop on mean squared
        codebook movement per epoch; :attr:`fit_epochs_` records the
        epochs actually run.
        """
        embeddings = self._check_input(embeddings)
        _check_fit_args(embeddings, epochs, batch_size, tol)
        n = embeddings.shape[0]
        m_count, k_count, sub = (self.num_subspaces, self.num_codes,
                                 self.subdim)
        parts = embeddings.reshape(n, m_count, sub)

        # Local float64 training state, written back after the loop.
        ema_counts = np.stack([q.ema_counts.copy()
                               for q in self.quantizers])
        ema_sums = np.stack([q.ema_sums.copy() for q in self.quantizers])
        books = np.stack([q.codebook.data.astype(np.float64)
                          for q in self.quantizers])  # (M, K, sub)
        decay = self.quantizers[0].decay
        eps = self.quantizers[0].eps
        restart = self.quantizers[0].restart_threshold
        offsets = (np.arange(m_count) * k_count)[None, :]

        for epoch in range(epochs):
            previous = books.copy()
            order = derive_rng(seed, 1, epoch).permutation(n)
            for batch_index, start in enumerate(range(0, n, batch_size)):
                batch = parts[order[start:start + batch_size]]
                b = batch.shape[0]
                # Round-trip through float32 to match the stored
                # Parameter precision the online update() assigns with.
                books_assign = books.astype(np.float32).astype(np.float64)
                codes = np.empty((b, m_count), dtype=np.int64)
                for m in range(m_count):
                    scores = (np.sum(books_assign[m] ** 2, axis=1)[None, :]
                              - 2.0 * (batch[:, m] @ books_assign[m].T))
                    codes[:, m] = np.argmin(scores, axis=1)
                flat = (codes + offsets).ravel()
                counts = np.bincount(flat, minlength=m_count * k_count) \
                    .reshape(m_count, k_count).astype(np.float64)
                sums = np.zeros((m_count * k_count, sub), dtype=np.float64)
                np.add.at(sums, flat, batch.reshape(b * m_count, sub))
                sums = sums.reshape(m_count, k_count, sub)

                ema_counts = decay * ema_counts + (1 - decay) * counts
                ema_sums = decay * ema_sums + (1 - decay) * sums
                total = ema_counts.sum(axis=1, keepdims=True)
                smoothed = ((ema_counts + eps)
                            / (total + k_count * eps) * total)
                books = ema_sums / smoothed[:, :, None]

                dead = ema_counts < restart
                if dead.any():
                    # One rng draw per subspace, in subspace order, so
                    # restarts replay the online update() draw sequence.
                    rng = derive_rng(seed, 2, epoch, batch_index)
                    for m in range(m_count):
                        dead_m = dead[m]
                        if not dead_m.any():
                            continue
                        picks = rng.integers(0, b, size=int(dead_m.sum()))
                        books[m, dead_m] = batch[picks, m]
                        ema_sums[m, dead_m] = batch[picks, m]
                        ema_counts[m, dead_m] = 1.0
            self.fit_epochs_ = epoch + 1
            shift = float(np.mean((books - previous) ** 2))
            if shift <= tol:
                break

        for m, q in enumerate(self.quantizers):
            q.set_buffer("ema_counts", ema_counts[m])
            q.set_buffer("ema_sums", ema_sums[m])
            q.codebook.data = books[m].astype(np.float32)
        return self


class CodeMemory(Module):
    """FIFO buffer of quantized reconstructions (contrastive negatives).

    Registered as buffers so the memory — contents, write pointer, and
    fill count — travels with trainer checkpoints and restores
    bit-exactly.
    """

    def __init__(self, capacity: int, dim: int) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.register_buffer("memory",
                             np.zeros((capacity, dim), dtype=np.float64))
        self.register_buffer("ptr", np.array(0, dtype=np.int64))
        self.register_buffer("count", np.array(0, dtype=np.int64))

    @property
    def capacity(self) -> int:
        return int(self.memory.shape[0])

    def __len__(self) -> int:
        return int(self.count)

    def push(self, z: np.ndarray) -> None:
        """Append rows of ``z``, wrapping FIFO-style once full."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.memory.shape[1]:
            raise ValueError(
                f"expected (N, {self.memory.shape[1]}) rows, got {z.shape}"
            )
        memory = self.memory.copy()
        ptr = int(self.ptr)
        size = self.capacity
        n = z.shape[0]
        if n >= size:
            memory[:] = z[-size:]
            ptr = 0
        else:
            end = ptr + n
            if end <= size:
                memory[ptr:end] = z
            else:
                first = size - ptr
                memory[ptr:] = z[:first]
                memory[:end % size] = z[first:]
            ptr = end % size
        self.set_buffer("memory", memory)
        self.set_buffer("ptr", np.array(ptr, dtype=np.int64))
        self.set_buffer("count", np.array(min(int(self.count) + n, size),
                                          dtype=np.int64))

    def negatives(self) -> np.ndarray:
        """The filled portion of the memory (copy, oldest-slot order)."""
        return self.memory[:len(self)].copy()
